// Package traffic provides synthetic workload generation and
// measurement harnesses for Hermes NoC experiments: injection-rate
// sweeps under a library of traffic patterns, single-packet latency
// probes for validating the paper's latency formula, and the
// five-connection peak-throughput setup behind the 1 Gbit/s router
// claim (§2.1).
//
// # Pattern library
//
// Patterns are selected by name through PatternSpec (Config.Spec), so a
// workload survives a JSON round trip and sweeps by name: "uniform",
// "transpose", "bitcomp" and "bitrev" are the classic permutations;
// "hotspot" draws destinations from a weighted spot set with the
// remaining probability uniform; "bursty" modulates arrivals with an
// on/off process (geometric burst lengths, rate-conserving off gaps)
// whose next injection cycle is always known, so it composes with the
// time-warp kernel; "trace" replays an NDJSON injection log recorded by
// RunRecorded (identical injections reproduce a bit-identical Result);
// and "multicast" sends every packet to a destination group via
// noc.Endpoint.SendMulti — path-based forwarding by default, unicast
// replication as the differential oracle. Every pattern draws its
// randomness only on injection cycles, which keeps the RNG stream — and
// therefore the Result — bit-identical under every Config.Kernel
// (TestPatternCrossKernelIdentical).
package traffic

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/noc"
	"repro/internal/sim"
)

// Pattern picks a destination for a packet injected at src.
type Pattern func(src noc.Addr, r *sim.Rand, cfg noc.Config) noc.Addr

// Uniform sends to any node but the source, uniformly.
func Uniform(src noc.Addr, r *sim.Rand, cfg noc.Config) noc.Addr {
	for {
		d := noc.Addr{X: r.Intn(cfg.Width), Y: r.Intn(cfg.Height)}
		if d != src {
			return d
		}
	}
}

// Transpose sends (x,y) to (y,x); diagonal nodes fall back to uniform.
func Transpose(src noc.Addr, r *sim.Rand, cfg noc.Config) noc.Addr {
	d := noc.Addr{X: src.Y, Y: src.X}
	if d == src || d.X >= cfg.Width || d.Y >= cfg.Height {
		return Uniform(src, r, cfg)
	}
	return d
}

// BitComplement sends (x,y) to (W-1-x, H-1-y); the centre falls back to
// uniform.
func BitComplement(src noc.Addr, r *sim.Rand, cfg noc.Config) noc.Addr {
	d := noc.Addr{X: cfg.Width - 1 - src.X, Y: cfg.Height - 1 - src.Y}
	if d == src {
		return Uniform(src, r, cfg)
	}
	return d
}

// Config parameterizes a load experiment.
type Config struct {
	// Spec selects the traffic pattern by name with its parameters (see
	// PatternSpec); the zero value is uniform traffic.
	Spec PatternSpec
	// Kernel selects how the run is scheduled (see sim.Kernel). Every
	// kernel produces the same Result (TestPatternCrossKernelIdentical);
	// the oracle modes exist for differential tests and benchmarks.
	Kernel sim.Kernel
	// OnNetwork, when non-nil, is called with the freshly built network
	// (endpoints and injectors attached) before the first cycle runs —
	// an instrumentation hook for differential tests to attach VCD
	// probes or capture router statistics.
	OnNetwork func(*noc.Network)
	// Rate is the offered load in flits/cycle/node (link capacity is
	// 0.5 flits/cycle, so saturation sits well below that).
	Rate float64
	// PayloadFlits is the packet payload size.
	PayloadFlits int
	// Seed makes the workload reproducible.
	Seed uint64
	// Warmup, Measure and Drain are phase lengths in cycles.
	Warmup  int
	Measure int
	Drain   int
	// QueueCap skips injection at a node whose endpoint queue already
	// holds this many flits (source-queue backpressure). 0 means 64.
	QueueCap int
	// Ctx, when non-nil, bounds the run in wall-clock time: once the
	// context is cancelled (or its deadline passes) the kernel stops at
	// its next cancellation check and Run returns the context's error.
	// A finished run is never failed retroactively.
	Ctx context.Context
	// MaxCycles, when non-zero, bounds the run in simulated time: a run
	// whose clock reaches this cycle count fails with ErrCycleBudget.
	// It is a safety net against runaway configurations (a drain that
	// never quiesces, a saturated mesh crawling through its measure
	// phase); a successful run needs MaxCycles > Warmup+Measure+Drain.
	MaxCycles uint64
}

// ErrCycleBudget reports that a run exceeded its Config.MaxCycles
// simulated-cycle budget.
var ErrCycleBudget = errors.New("traffic: simulated-cycle budget exceeded")

// Validate reports the first invalid field of the experiment
// configuration against the mesh it will run on, nil when usable.
// Run calls it itself; services accepting configurations from the
// network call it up front so a malformed job is rejected as a client
// error before any simulator state is built.
func (c Config) Validate(ncfg noc.Config) error {
	if err := ncfg.Validate(); err != nil {
		return err
	}
	switch {
	case math.IsNaN(c.Rate) || math.IsInf(c.Rate, 0) || c.Rate < 0:
		return fmt.Errorf("traffic: invalid injection rate %v", c.Rate)
	case c.Rate > 1:
		return fmt.Errorf("traffic: injection rate %v exceeds 1 flit/cycle/node", c.Rate)
	case c.PayloadFlits <= 0:
		return fmt.Errorf("traffic: payload must be positive, got %d", c.PayloadFlits)
	case c.PayloadFlits > noc.MaxPayload(ncfg.FlitBits):
		return fmt.Errorf("traffic: payload of %d flits exceeds max %d for %d-bit flits",
			c.PayloadFlits, noc.MaxPayload(ncfg.FlitBits), ncfg.FlitBits)
	case c.Warmup < 0:
		return fmt.Errorf("traffic: negative warmup %d", c.Warmup)
	case c.Measure < 1:
		return fmt.Errorf("traffic: measurement window must be at least 1 cycle, got %d", c.Measure)
	case c.QueueCap < 0:
		return fmt.Errorf("traffic: negative queue cap %d", c.QueueCap)
	}
	if _, err := sim.ParseKernel(c.Kernel); err != nil {
		return err
	}
	if err := c.Spec.Validate(ncfg); err != nil {
		return err
	}
	if b := c.Spec.resolveBurst(); b != nil && c.Rate >= b.Peak {
		return fmt.Errorf("traffic: offered rate %v must stay below the burst peak rate %v",
			c.Rate, b.Peak)
	}
	return nil
}

// Result reports a load experiment.
type Result struct {
	// Offered is the load the generator attempted, flits/cycle/node.
	Offered float64
	// Accepted is the load actually injected, flits/cycle/node.
	Accepted float64
	// Delivered is the throughput: flits ejected per cycle per node
	// during the measurement window.
	Delivered float64
	// Latency summarizes packets injected during the measurement
	// window.
	Latency noc.LatencyStats
	// MeasuredPackets is the number of packets behind Latency.
	MeasuredPackets int
}

// injMode selects an injector's arrival process.
type injMode int

const (
	// modeGap is the Bernoulli reference: geometric gaps at the
	// configured rate.
	modeGap injMode = iota
	// modeBurst is the on/off process of BurstSpec: geometric gaps at
	// the peak rate while a burst lasts, a longer geometric off period
	// between bursts, tuned so the long-run offered rate matches.
	modeBurst
	// modeTrace replays a recorded injection log cycle for cycle.
	modeTrace
)

// injector drives one node's packet arrival process as a clocked
// component. Rather than drawing a Bernoulli(p) sample every cycle, it
// draws the geometric gap to its next injection cycle, arms a WakeAt
// timer for it and sleeps — so a low-rate sweep leaves the whole clock
// domain dead between injections and the time-warp kernel jumps the
// gaps outright. All three modes (Bernoulli gaps, bursty on/off, trace
// replay) keep that shape: the next injection cycle is always known
// when Eval returns, so the component is warp-friendly. The process is
// identical under dense evaluation (Eval runs every cycle but acts
// only at the scheduled cycle) and with time warping off, keeping the
// Results bit-identical across all kernel modes.
type injector struct {
	clk      *sim.Clock
	self     sim.Handle // wakes this injector
	ep       *noc.Endpoint
	rng      *sim.Rand
	pattern  Pattern
	ncfg     noc.Config
	prob     float64 // per-cycle packet probability (modeGap)
	payload  int
	zeros    []uint16 // the run's shared all-zero payload
	queueCap int

	mode injMode
	// pOn/pGap are the modeBurst per-cycle probabilities inside a burst
	// and for the off gap between bursts; burstLen is the mean burst
	// length in packets; burstLeft counts packets left in the current
	// burst.
	pOn, pGap float64
	burstLen  float64
	burstLeft int
	// trace holds this node's modeTrace entries in cycle order;
	// traceIdx is the replay cursor.
	trace    []TraceEntry
	traceIdx int
	// group, when non-nil, makes every injection a SendMulti to this
	// destination set.
	group []noc.Addr
	// recording collects one TraceEntry per successful unicast send
	// when enabled (RunRecorded).
	recording bool
	recorded  []TraceEntry

	// measureFrom/measureTo bound the measurement window and lastAt the
	// whole injection phase, all in cycle numbers of the Eval they
	// apply to (inclusive).
	measureFrom, measureTo, lastAt uint64

	next uint64 // cycle of the next injection attempt; 0 = finished

	// Per-injector tallies of the measurement window, aggregated by
	// Run: flits and packets sent.
	measuredInjected uint64
	measuredPackets  int
}

// schedule draws the gap to the next injection attempt after now.
func (in *injector) schedule(now uint64) {
	var gap uint64
	switch in.mode {
	case modeTrace:
		if in.traceIdx >= len(in.trace) {
			in.next = 0
			return
		}
		// Entries are cycle-sorted and Eval consumes every entry due at
		// its cycle, so the cursor's cycle is strictly in the future.
		in.next = in.trace[in.traceIdx].Cycle
		in.self.WakeAt(in.next)
		return
	case modeBurst:
		if in.burstLeft <= 0 {
			// Burst over: draw the next burst's length and sleep through
			// the off period.
			in.burstLeft = int(in.rng.Geometric(1 / in.burstLen))
			gap = in.rng.Geometric(in.pGap)
		} else {
			gap = in.rng.Geometric(in.pOn)
		}
		in.burstLeft--
	default:
		gap = in.rng.Geometric(in.prob)
	}
	if gap == 0 || now+gap > in.lastAt {
		in.next = 0 // injection phase over: no timer, permanently idle
		return
	}
	in.next = now + gap
	in.self.WakeAt(in.next)
}

// tally records a successful unicast injection for measurement and,
// when recording, the replay trace.
func (in *injector) tally(meta *noc.PacketMeta, now uint64, payload int) {
	if in.recording {
		in.recorded = append(in.recorded, TraceEntry{
			Cycle: now, Src: in.ep.Addr(), Dst: meta.Dst, Payload: payload,
		})
	}
	if now >= in.measureFrom && now <= in.measureTo {
		in.measuredInjected += uint64(payload + 2)
		in.measuredPackets++
	}
}

// Eval implements sim.Component.
func (in *injector) Eval() {
	now := in.clk.Cycle() + 1
	if in.next == 0 || now < in.next {
		return
	}
	discard(in.ep)
	switch {
	case in.mode == modeTrace:
		// Replay bypasses the queue-cap check: the recorded run already
		// applied backpressure, so every entry is injected verbatim.
		for in.traceIdx < len(in.trace) && in.trace[in.traceIdx].Cycle == now {
			e := in.trace[in.traceIdx]
			in.traceIdx++
			if meta, err := in.ep.Send(e.Dst, in.zeros[:e.Payload]); err == nil {
				in.tally(meta, now, e.Payload)
			}
		}
	case in.ep.QueuedFlits() > in.queueCap:
		// Source-queue backpressure: skip this opportunity.
	case in.group != nil:
		if g, err := in.ep.SendMulti(in.group, in.zeros[:in.payload]); err == nil {
			if now >= in.measureFrom && now <= in.measureTo {
				in.measuredInjected += uint64((in.payload + 2) * len(g.Legs))
				in.measuredPackets += len(g.Legs)
			}
		}
	default:
		dst := in.pattern(in.ep.Addr(), in.rng, in.ncfg)
		if meta, err := in.ep.Send(dst, in.zeros[:in.payload]); err == nil {
			in.tally(meta, now, in.payload)
		}
	}
	in.schedule(now)
}

// discard pops every packet delivered to ep. Run reads deliveries
// through the network's delivery hook, so it never reads a packet, but
// popping lets the endpoint reuse the packet's reassembly storage.
func discard(ep *noc.Endpoint) {
	for {
		if _, ok := ep.Recv(); !ok {
			return
		}
	}
}

// Commit implements sim.Component.
func (in *injector) Commit() {}

// Idle implements sim.Idler: the injector sleeps whenever its next
// injection is beyond the coming cycle (a WakeAt timer is armed for
// it), and forever once the injection phase ends.
func (in *injector) Idle() bool {
	return in.next == 0 || in.next > in.clk.Cycle()+1
}

// Run executes a load experiment on a fresh network.
func Run(ncfg noc.Config, tcfg Config) (Result, error) {
	res, _, err := run(ncfg, tcfg, false)
	return res, err
}

// RunRecorded executes a load experiment while recording every
// successful packet injection, returning the merged trace (cycle
// order, ties in node order) alongside the result. Replaying the trace
// — Config.Spec = PatternSpec{Name: "trace", Trace: rec} on the same
// mesh, under any kernel — injects the identical packet sequence and
// therefore reproduces the recorded run's Result bit for bit
// (TestTraceReplayReproducesRecordedRun). Multicast workloads cannot
// be recorded: a trace entry is a unicast send.
func RunRecorded(ncfg noc.Config, tcfg Config) (Result, []TraceEntry, error) {
	if tcfg.Spec.Name == "multicast" {
		return Result{}, nil, fmt.Errorf("traffic: cannot record a multicast workload as a unicast trace")
	}
	return run(ncfg, tcfg, true)
}

func run(ncfg noc.Config, tcfg Config, record bool) (Result, []TraceEntry, error) {
	if tcfg.QueueCap == 0 {
		tcfg.QueueCap = 64
	}
	if tcfg.Drain < 0 {
		tcfg.Drain = 0 // a negative drain ran zero cycles before the uint64 budget
	}
	if err := tcfg.Validate(ncfg); err != nil {
		return Result{}, nil, err
	}
	// Resolve the pattern spec into the injectors' destination pattern,
	// arrival mode and multicast group.
	s := tcfg.Spec
	pattern := s.destPattern()
	mode := modeGap
	burst := s.resolveBurst()
	if burst != nil {
		mode = modeBurst
	}
	var group []noc.Addr
	var traceBySrc map[noc.Addr][]TraceEntry
	// Every injector sends from one all-zero payload, as long as the
	// largest packet of the run.
	maxPayload := tcfg.PayloadFlits
	switch s.Name {
	case "trace":
		mode = modeTrace
		traceBySrc = make(map[noc.Addr][]TraceEntry)
		for _, e := range s.Trace {
			traceBySrc[e.Src] = append(traceBySrc[e.Src], e)
			maxPayload = max(maxPayload, e.Payload)
		}
		for _, es := range traceBySrc {
			sortTrace(es)
		}
	case "multicast":
		group = s.Group
	}
	net, err := noc.New(ncfg, tcfg.Kernel)
	if err != nil {
		return Result{}, nil, err
	}
	clk := net.Clock()
	// Arm the wall-clock/cycle-budget cancellation hook.
	if ctx, limit := tcfg.Ctx, tcfg.MaxCycles; ctx != nil || limit > 0 {
		clk.SetCancel(func() bool { return ctx != nil && ctx.Err() != nil || limit > 0 && clk.Cycle() >= limit })
	}
	if group != nil {
		net.SetPathMulticast(!tcfg.Spec.MulticastUnicast)
	}
	// overBudget classifies a cancelled (or budget-straddling) run after
	// each phase: context errors win, then the cycle budget. The kernel
	// checks its hook with a bounded stride, so the final cycle count
	// may slightly overshoot the exact limit.
	overBudget := func() error {
		if tcfg.Ctx != nil && tcfg.Ctx.Err() != nil {
			return fmt.Errorf("traffic: run canceled: %w", tcfg.Ctx.Err())
		}
		if tcfg.MaxCycles > 0 && clk.Cycle() >= tcfg.MaxCycles {
			return fmt.Errorf("%w: cycle %d of %d", ErrCycleBudget, clk.Cycle(), tcfg.MaxCycles)
		}
		return nil
	}
	warmup, measure := uint64(tcfg.Warmup), uint64(tcfg.Measure)
	zeros := make([]uint16, maxPayload)
	var injectors []*injector
	for x := 0; x < ncfg.Width; x++ {
		for y := 0; y < ncfg.Height; y++ {
			ep, err := net.NewEndpoint(noc.Addr{X: x, Y: y})
			if err != nil {
				return Result{}, nil, err
			}
			in := &injector{
				clk:       clk,
				ep:        ep,
				rng:       sim.NewRand(tcfg.Seed + uint64(x*31+y)),
				pattern:   pattern,
				ncfg:      ncfg,
				prob:      tcfg.Rate / float64(tcfg.PayloadFlits+2),
				payload:   tcfg.PayloadFlits,
				zeros:     zeros,
				queueCap:  tcfg.QueueCap,
				mode:      mode,
				group:     group,
				recording: record,
				// Injection opportunities span cycles 1..warmup+measure;
				// the measurement window is its tail.
				measureFrom: warmup + 1,
				measureTo:   warmup + measure,
				lastAt:      warmup + measure,
			}
			if burst != nil {
				f := float64(tcfg.PayloadFlits + 2)
				in.pOn = burst.Peak / f
				in.burstLen = burst.Len
				// The off period is sized for rate conservation: one
				// on/off cycle carries Len*f flits on average and must
				// span Len*f/Rate cycles, of which the burst itself takes
				// Len/pOn.
				gapMean := burst.Len*f/tcfg.Rate - burst.Len/in.pOn
				if gapMean < 1 {
					gapMean = 1
				}
				in.pGap = 1 / gapMean
			}
			if mode == modeTrace {
				in.trace = traceBySrc[noc.Addr{X: x, Y: y}]
			}
			in.self = in.clk.Register(in)
			in.schedule(0)
			injectors = append(injectors, in)
		}
	}

	// Latency is recorded as packets are delivered. A measured packet
	// is one an injector sent in the measurement window: its Eval for
	// cycle c runs while the clock reads c-1, so the packet was created
	// in [warmup, warmup+measure).
	var lat noc.LatencyHistogram
	net.OnDelivery(func(m *noc.PacketMeta) {
		if m.CreatedCycle >= warmup && m.CreatedCycle < warmup+measure {
			lat.Add(m)
		}
	})
	// Injectors pop their endpoints' deliveries as they evaluate, and
	// every endpoint is emptied after each phase.
	discardAll := func() {
		for _, in := range injectors {
			discard(in.ep)
		}
	}

	if tcfg.OnNetwork != nil {
		tcfg.OnNetwork(net)
	}

	clk.Run(warmup)
	if err := overBudget(); err != nil {
		return Result{}, nil, err
	}
	discardAll()
	startDelivered := net.DeliveredFlits()
	clk.Run(measure)
	if err := overBudget(); err != nil {
		return Result{}, nil, err
	}
	discardAll()
	endDelivered := net.DeliveredFlits()
	// Drain so measured packets complete. Quiescence means every
	// in-flight flit has been delivered and the mesh is back to sleep,
	// so this stops as soon as the drain is actually done; the Drain
	// budget only bounds it: a timeout leaves late packets unmeasured,
	// but a cancelled or over-budget drain fails the run.
	if err := clk.RunUntilQuiescent(uint64(tcfg.Drain)); errors.Is(err, sim.ErrCanceled) {
		if berr := overBudget(); berr != nil {
			return Result{}, nil, berr
		}
		return Result{}, nil, err
	}
	discardAll()

	var measuredInjected uint64
	var measuredPackets int
	for _, in := range injectors {
		measuredInjected += in.measuredInjected
		measuredPackets += in.measuredPackets
	}
	nNodes := float64(len(injectors))
	res := Result{
		Offered:         tcfg.Rate,
		Accepted:        float64(measuredInjected) / float64(tcfg.Measure) / nNodes,
		Delivered:       float64(endDelivered-startDelivered) / float64(tcfg.Measure) / nNodes,
		Latency:         lat.Stats(),
		MeasuredPackets: measuredPackets,
	}
	var rec []TraceEntry
	if record {
		// Merge per-injector records in node order, then cycle order —
		// the canonical trace, independent of evaluation order.
		for _, in := range injectors {
			rec = append(rec, in.recorded...)
		}
		sortTrace(rec)
	}
	return res, rec, nil
}

// ProbeLatency measures one packet's network latency under kernel on an
// otherwise idle mesh — the setting of the paper's minimal-latency formula.
func ProbeLatency(ncfg noc.Config, src, dst noc.Addr, payload int, kernel sim.Kernel) (uint64, error) {
	net, err := noc.New(ncfg, kernel)
	if err != nil {
		return 0, err
	}
	s, err := net.NewEndpoint(src)
	if err != nil {
		return 0, err
	}
	if _, err := net.NewEndpoint(dst); err != nil && src != dst {
		return 0, err
	}
	meta, err := s.Send(dst, make([]uint16, payload))
	if err != nil {
		return 0, err
	}
	// The mesh quiesces a handful of cycles after the tail flit ejects,
	// so running to quiescence replaces the per-cycle delivery poll.
	if err := net.Clock().RunUntilQuiescent(1_000_000); err != nil {
		return 0, err
	}
	if meta.EjectCycle == 0 {
		return 0, fmt.Errorf("traffic: network quiescent but packet %d undelivered", meta.ID)
	}
	return meta.NetworkLatency(), nil
}

// PeakResult reports the five-connection router saturation experiment.
type PeakResult struct {
	// FlitsPerCycle is the centre router's aggregate forwarding rate.
	FlitsPerCycle float64
	// MeasuredGbps converts it at the configured flit width and clock.
	MeasuredGbps float64
	// TheoreticalGbps is the paper's 5-port peak (1 Gbit/s for
	// MultiNoC's parameters).
	TheoreticalGbps float64
	// Efficiency is measured/theoretical.
	Efficiency float64
}

// PeakThroughput drives all five ports of the centre router of a 3x3
// mesh simultaneously (W->E, E->W, S->N, N->S and Local->Local) with
// back-to-back maximum-size packets, reproducing the §2.1 claim that a
// router peaks at 5 x flit/2-cycles (1 Gbit/s at 50 MHz, 8-bit flits),
// under kernel.
func PeakThroughput(ncfg noc.Config, packets int, kernel sim.Kernel) (PeakResult, error) {
	if ncfg.Width < 3 || ncfg.Height < 3 {
		return PeakResult{}, fmt.Errorf("traffic: peak experiment needs a 3x3 mesh")
	}
	net, err := noc.New(ncfg, kernel)
	if err != nil {
		return PeakResult{}, err
	}
	clk := net.Clock()
	flows := [][2]noc.Addr{
		{{X: 0, Y: 1}, {X: 2, Y: 1}}, // enters centre W, exits E
		{{X: 2, Y: 1}, {X: 0, Y: 1}}, // E -> W
		{{X: 1, Y: 0}, {X: 1, Y: 2}}, // S -> N
		{{X: 1, Y: 2}, {X: 1, Y: 0}}, // N -> S
		{{X: 1, Y: 1}, {X: 1, Y: 1}}, // Local -> Local
	}
	eps := map[noc.Addr]*noc.Endpoint{}
	for _, f := range flows {
		for _, a := range f {
			if eps[a] == nil {
				ep, err := net.NewEndpoint(a)
				if err != nil {
					return PeakResult{}, err
				}
				eps[a] = ep
			}
		}
	}
	payload := noc.MaxPayload(ncfg.FlitBits)
	if payload > 255 {
		payload = 255
	}
	want := uint64(len(flows) * packets)
	zeros := make([]uint16, payload)
	for _, f := range flows {
		for p := 0; p < packets; p++ {
			if _, err := eps[f[0]].Send(f[1], zeros); err != nil {
				return PeakResult{}, err
			}
		}
	}
	// Warm the connections up, then measure the centre router over a
	// window well inside the streaming phase.
	centre := net.Router(noc.Addr{X: 1, Y: 1})
	clk.Run(200)
	startFlits := centre.Stats().TotalFlits()
	startCycle := clk.Cycle()
	if err := clk.RunUntil(func() bool { return net.Delivered() == want }, 100_000_000); err != nil {
		return PeakResult{}, err
	}
	// Stop counting at the last delivery.
	flits := centre.Stats().TotalFlits() - startFlits
	cycles := clk.Cycle() - startCycle
	rate := float64(flits) / float64(cycles)
	res := PeakResult{
		FlitsPerCycle:   rate,
		MeasuredGbps:    rate * float64(ncfg.FlitBits) * ncfg.ClockMHz / 1000,
		TheoreticalGbps: noc.RouterPeakGbps(ncfg),
	}
	res.Efficiency = res.MeasuredGbps / res.TheoreticalGbps
	return res, nil
}
