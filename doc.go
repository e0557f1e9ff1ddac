// Package repro is a full reimplementation of "MultiNoC: A
// Multiprocessing System Enabled by a Network on Chip" (Mello, Möller,
// Calazans, Moraes — DATE 2004): the Hermes wormhole NoC, the R8
// processor and its toolchain (assembler, functional simulator, R8C
// compiler), the Memory and Serial IP cores, the host software, and a
// cycle-accurate full-system simulator tying them together.
//
// The simulator runs on an activity-scheduled, time-warping two-phase
// kernel (internal/sim): components that report themselves idle —
// routers with empty buffers, links with tx low, endpoints with
// drained queues, halted processors, quiet UARTs — are skipped
// entirely and woken by link activity, explicit wakes or timers; and
// when nothing at all is switching, the kernel jumps the clock
// straight to the earliest armed timer instead of stepping the dead
// cycles one by one. The models produce warpable gaps on purpose:
// UARTs sleep between line transitions on bit-edge timers, routers
// sleep through their routing delay on a completion timer, and traffic
// injectors precompute their next injection cycle and sleep until it —
// so executed steps are proportional to events, not to simulated time
// (a host round trip at a realistic RS-232 rate costs the same wall
// clock as at a compressed one). All of it preserves bit-exact
// equivalence with dense evaluation (same seed, same results, any
// kernel mode), and drivers wait for quiescence
// (sim.Clock.RunUntilQuiescent, core.System.DrainIO) instead of
// stepping a guessed cycle count.
//
// Every NoC link runs the paper's 2-cycle asynchronous handshake,
// stepped cycle by cycle while the link is busy. Flits are two-word
// values — data plus a noc.PacketID indexing a network-owned metadata
// table — so the steady-state flit path allocates nothing.
//
// The system can additionally be sharded into GALS-style clock domains
// (sim.Group): the mesh is partitioned into per-region domains
// (noc.NewSharded, noc.StripDomains, core.Config.NoCDomains) whose
// only coupling is mirror wires (sim.MirrorWire) with a one-cycle
// boundary register — the conservative lookahead. Each domain owns its
// active set, wake queue and timer heap and warps its own dead spans;
// in parallel mode (Group.SetParallel) every domain runs on its own
// goroutine and may advance to min(upstream horizons) + 1, exchanging
// wire changes as ordered cross-domain events. The contract for models
// is unchanged: anything built on registered wires, Watch, and WakeAt
// timers is warpable and shardable as-is, because a mirror delivers a
// change with exactly a local wire's timing. Lockstep execution
// (SetParallel(false), the default) is bit-identical to registering
// everything on one Clock — traffic results, router statistics, VCD
// dumps, and full boot transcripts — and the parallel schedule is
// deterministic for a fixed partition and reproduces the lockstep
// results exactly.
//
// Workloads come from a traffic-pattern library
// (internal/traffic.PatternSpec): uniform, transpose, bit-complement,
// bit-reverse, weighted multi-spot hotspot, bursty on/off arrivals
// (geometric burst lengths whose next injection cycle is always known,
// so bursts warp like everything else), NDJSON trace record/replay,
// and multicast groups delivered either by path-based forwarding
// (noc.Endpoint.SendMulti, one wormhole snaking through the group) or
// by unicast replication as the differential oracle. Patterns are
// named values, so the same spec selects a workload in traffic.Config,
// an experiments.TrafficJob swept by sweepd, or a nocsim invocation —
// and every pattern draws randomness only on injection cycles, keeping
// results bit-identical across all kernel modes.
//
// On top of the kernel sits the design-space sweep service
// (internal/sweep, cmd/sweepd): an HTTP server that takes batches of
// serializable simulation configs (experiments.TrafficJob), runs each
// on its own independent Clock or Group across a worker pool, and
// journals every result. The service is built to survive its own
// workload — a panicking model becomes a failed-job record with the
// captured stack, runaway configs hit wall-clock and simulated-cycle
// deadlines (enforced inside the kernel via Clock.SetCancel),
// transient failures retry with backoff, a full queue sheds idle
// batches or pushes back with 429, and a crash-safe journal lets a
// restarted server resume unfinished jobs while serving finished ones
// from a dedupe cache keyed by (canonical config, seed, code version).
//
// See README.md for a tour, DESIGN.md for the system inventory and
// experiment index, and EXPERIMENTS.md for paper-vs-measured results.
// The benchmarks in bench_test.go regenerate every experiment; the
// binaries under cmd/ and the programs under examples/ exercise the
// public API.
package repro
