// Package repro is a full reimplementation of "MultiNoC: A
// Multiprocessing System Enabled by a Network on Chip" (Mello, Möller,
// Calazans, Moraes — DATE 2004): the Hermes wormhole NoC, the R8
// processor and its toolchain (assembler, functional simulator, R8C
// compiler), the Memory and Serial IP cores, the host software, and a
// cycle-accurate full-system simulator tying them together.
//
// The simulator runs on an activity-scheduled, time-warping two-phase
// kernel (internal/sim): components that report themselves idle —
// routers and endpoints whose next evaluation would stage nothing (at
// rest, or stalled mid-wormhole until a tx, an ack or a routing timer
// ends the stall; a router starts serving a waiting header on the
// clock edge, so a header never keeps it awake), links with tx low,
// halted processors, processors
// at a fixed point (a pure poll loop over local memory, or a stalled
// access whose retry changes nothing) or computing locally between two
// accesses outside their memory, quiet UARTs — are skipped
// entirely and woken by link activity, explicit wakes or timers; and
// when nothing at all is switching, the kernel jumps the clock
// straight to the earliest armed timer instead of stepping the dead
// cycles one by one. The models produce warpable gaps on purpose:
// a UART transmitter stages up to six frames at once and sleeps until
// the burst ends, a receiver sleeps until the cycle a byte completes,
// routers sleep through their routing delay on a completion timer,
// traffic injectors precompute their next injection cycle and sleep
// until it, a processor polling a flag sleeps until a packet arrives, then
// adds the loop periods it slept through to its counters, and a
// computing processor dry-runs its core to its next access outside
// local memory, sleeps on a timer until then and commits the dry run
// there, so that each planned cycle executes once — so
// executed steps are proportional to events, not to simulated time (a
// host round trip at a realistic RS-232 rate costs the same wall
// clock as at a compressed one, and so does the paper's
// edge-detection flow). All of it preserves bit-exact equivalence
// with dense evaluation (same seed, same results, any kernel mode),
// and drivers wait for quiescence (sim.Clock.RunUntilQuiescent,
// core.System.DrainIO) instead of stepping a guessed cycle count.
//
// Every NoC link runs the paper's 2-cycle asynchronous handshake,
// stepped cycle by cycle while the link is busy, and keeps it on its
// tx and ack wires alone; a router's clock edge latches only the ports
// whose buffer, wormhole or crossbar state moved, and a router reads
// only its live ports that do not wait: the inputs whose tx it last
// read high and whose buffer has space, or whose ack it holds, the
// outputs with a connection that present no flit, and the ports whose
// wires the edge changed (an input's tx, an output's ack), which the
// kernel's latch marks in the router's 16-bit change mask (sim.Watch
// names each wire's bit). Flits are two-word
// values — data plus a noc.PacketID indexing a network-owned metadata
// table. An endpoint queues whole packets, in one injection queue in
// evaluation order, and builds each flit as it presents it, and
// reassembles deliveries into word rings of its own, so once those
// have grown to its backlog, flits, sends and deliveries allocate
// nothing. Traffic experiments take their latency statistics as
// packets are delivered, through a delivery hook on noc.Network.
//
// One value, sim.Kernel, says how any run is scheduled: the default,
// or one of the two oracles that each switch one optimisation off —
// "nowarp" steps every cycle, "dense" evaluates every component every
// cycle. A run has exactly one Clock, its network's: noc.New takes the
// run's Kernel, builds the Clock through sim.ParseKernel (the value's
// only parser) and registers the mesh on it, and the run builds its IP
// cores and probes on Network.Clock. Every paper experiment takes the
// Kernel too (experiments.Report), and the pinned report reads the
// same under all three. Models need nothing extra: anything built on
// registered wires, Watch, and Handle.WakeAt timers is warpable as-is,
// and every kernel marks a watched wire's change alike. Every kernel
// visits its awake components in registration order and reproduces
// the default's traffic results, packet numbering, router statistics,
// VCD dumps, boot transcripts and paper report bit for bit.
//
// Workloads come from a traffic-pattern library
// (internal/traffic.PatternSpec): uniform, transpose, bit-complement,
// bit-reverse, weighted multi-spot hotspot, bursty on/off arrivals
// (geometric burst lengths whose next injection cycle is always known,
// so bursts warp like everything else), NDJSON trace record/replay,
// and multicast groups delivered either by path-based forwarding
// (noc.Endpoint.SendMulti, one wormhole snaking through the group) or
// by unicast replication as the differential oracle. Every pattern
// draws randomness only on injection cycles, keeping results
// bit-identical across all kernel modes.
//
// A traffic experiment has one description, experiments.TrafficJob
// (mesh, routing and pattern by name, load, seed, kernel), and one run
// path, TrafficJob.Run: sweepd runs submitted jobs through it, and
// nocsim turns its flags into one job per offered rate and runs those.
//
// On top of the kernel sits the design-space sweep service
// (internal/sweep, cmd/sweepd): an HTTP server that takes batches of
// serializable simulation configs (experiments.TrafficJob), runs each
// on its own independent Clock across a worker pool, and
// journals every result. The service is built to survive its own
// workload — a panicking model becomes a failed-job record with the
// captured stack, runaway configs hit wall-clock and simulated-cycle
// deadlines (enforced inside the kernel via Clock.SetCancel), a full
// queue pushes back with 429, and a crash-safe journal lets a
// restarted server resume unfinished jobs while serving finished ones
// from a dedupe cache keyed by (canonical config, seed, code version).
// A job's result is a function of its config and seed, so each job is
// attempted once.
//
// Each package under internal/ documents its own model. `go run
// ./cmd/experiments` prints the paper-vs-measured report, one section
// per claim (experiments.All is the index). The benchmarks in
// bench_test.go regenerate every experiment; the binaries under cmd/
// and the programs under examples/ exercise the public API.
package repro
