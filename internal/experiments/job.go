package experiments

import (
	"context"
	"fmt"

	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// TrafficJob is the serializable description of one design-space point:
// a mesh configuration plus a synthetic-load experiment on it. It is
// the job body of the sweep service (internal/sweep) — everything a
// batch submitter may vary is a plain field here, with routing
// algorithms and traffic patterns selected by name so a job survives a
// JSON round trip and two structurally equal jobs describe the same
// simulation.
//
// Zero fields mean "the MultiNoC default": mesh parameters fall back to
// noc.Defaults, the pattern to uniform, the routing to XY, and the
// phase lengths to a short steady-state window. Canonical() applies
// those defaults explicitly, which is what the sweep service hashes for
// its dedupe key.
type TrafficJob struct {
	// Mesh geometry and router parameters (0 → MultiNoC defaults).
	Width       int     `json:"width,omitempty"`
	Height      int     `json:"height,omitempty"`
	FlitBits    int     `json:"flitBits,omitempty"`
	BufDepth    int     `json:"bufDepth,omitempty"`
	RouteCycles int     `json:"routeCycles,omitempty"`
	ClockMHz    float64 `json:"clockMHz,omitempty"`
	// Routing selects the routing algorithm by name: "xy" (default),
	// "yx" or "westfirst".
	Routing string `json:"routing,omitempty"`
	// Pattern selects the traffic pattern by name — any name of the
	// traffic pattern library: "uniform" (default), "transpose",
	// "bitcomp", "bitrev", "hotspot" (weighted Hotspots), "bursty",
	// "trace" (replaying Trace) or "multicast" (a SendMulti group per
	// injection). Validate rejects parameters the pattern does not use.
	Pattern string `json:"pattern,omitempty"`
	// Hotspots is the weighted hotspot set of the "hotspot" pattern.
	Hotspots []traffic.HotspotSpec `json:"hotspots,omitempty"`
	// BurstLen and BurstPeak modulate arrivals with the on/off burst
	// process (zero → library defaults for the "bursty" pattern, no
	// modulation otherwise).
	BurstLen  float64 `json:"burstLen,omitempty"`
	BurstPeak float64 `json:"burstPeak,omitempty"`
	// Trace is the injection log replayed by the "trace" pattern.
	Trace []traffic.TraceEntry `json:"trace,omitempty"`
	// Multicast is the destination set of the "multicast" pattern;
	// MulticastUnicast delivers it by unicast replication (the oracle
	// mode) instead of path-based forwarding.
	Multicast        []noc.Addr `json:"multicast,omitempty"`
	MulticastUnicast bool       `json:"multicastUnicast,omitempty"`
	// Load parameters, as in traffic.Config.
	Rate         float64 `json:"rate"`
	PayloadFlits int     `json:"payloadFlits,omitempty"`
	Seed         uint64  `json:"seed"`
	Warmup       int     `json:"warmup,omitempty"`
	Measure      int     `json:"measure,omitempty"`
	Drain        int     `json:"drain,omitempty"`
	QueueCap     int     `json:"queueCap,omitempty"`
	// Kernel selects how the simulation is scheduled (see sim.Kernel).
	// Every kernel gives the same Result, so it is not part of the job's
	// identity: Canonical clears it, and Run honours it.
	Kernel sim.Kernel `json:"kernel,omitempty"`
}

// defaultJob holds the phase-length fallbacks for zero-valued jobs: a
// short steady-state window that keeps a default job cheap while still
// measuring something.
const (
	defaultJobWarmup  = 500
	defaultJobMeasure = 2000
	defaultJobDrain   = 20000
)

// Canonical returns the job with every default applied explicitly —
// two jobs describing the same simulation canonicalize to equal
// structs, the basis of the sweep service's dedupe key. Kernel is
// cleared: it selects an execution strategy with bit-identical results,
// not a different experiment.
func (j TrafficJob) Canonical() TrafficJob {
	if j.Width == 0 {
		j.Width = 8
	}
	if j.Height == 0 {
		j.Height = 8
	}
	d := noc.Defaults(j.Width, j.Height)
	if j.FlitBits == 0 {
		j.FlitBits = d.FlitBits
	}
	if j.BufDepth == 0 {
		j.BufDepth = d.BufDepth
	}
	if j.RouteCycles == 0 {
		j.RouteCycles = d.RouteCycles
	}
	if j.ClockMHz == 0 {
		j.ClockMHz = d.ClockMHz
	}
	if j.Routing == "" {
		j.Routing = "xy"
	}
	if j.Pattern == "" {
		j.Pattern = "uniform"
	}
	if j.Pattern == "bursty" || j.BurstLen != 0 || j.BurstPeak != 0 {
		if j.BurstLen == 0 {
			j.BurstLen = 8
		}
		if j.BurstPeak == 0 {
			j.BurstPeak = 0.5
		}
	}
	if j.PayloadFlits == 0 {
		j.PayloadFlits = 8
	}
	if j.Warmup == 0 {
		j.Warmup = defaultJobWarmup
	}
	if j.Measure == 0 {
		j.Measure = defaultJobMeasure
	}
	if j.Drain == 0 {
		j.Drain = defaultJobDrain
	}
	if j.QueueCap == 0 {
		j.QueueCap = 64
	}
	j.Kernel = ""
	return j
}

// routings maps routing names to algorithms. Names, not function
// pointers, are the job-level identity: they serialize and compare.
var routings = map[string]noc.RoutingFunc{
	"xy":        noc.RouteXY,
	"yx":        noc.RouteYX,
	"westfirst": noc.RouteWestFirst,
}

// Configs resolves the job into the mesh and experiment configurations
// Run executes: every default applied, the job's Kernel kept. A caller
// that needs more than a Result (nocsim's -record, -peak and -vcd) runs
// these itself.
func (j TrafficJob) Configs() (noc.Config, traffic.Config, error) {
	c := j.Canonical()
	routing, ok := routings[c.Routing]
	if !ok {
		return noc.Config{}, traffic.Config{}, fmt.Errorf("experiments: unknown routing %q", c.Routing)
	}
	ncfg := noc.Config{
		Width: c.Width, Height: c.Height,
		FlitBits: c.FlitBits, BufDepth: c.BufDepth,
		RouteCycles: c.RouteCycles, Routing: routing,
		ClockMHz: c.ClockMHz,
	}
	tcfg := traffic.Config{
		Spec: traffic.PatternSpec{
			Name: c.Pattern, Hotspots: c.Hotspots, Trace: c.Trace,
			Group: c.Multicast, MulticastUnicast: c.MulticastUnicast,
		},
		Kernel: j.Kernel, Rate: c.Rate, PayloadFlits: c.PayloadFlits, Seed: c.Seed,
		Warmup: c.Warmup, Measure: c.Measure, Drain: c.Drain, QueueCap: c.QueueCap,
	}
	if c.BurstLen != 0 || c.BurstPeak != 0 {
		tcfg.Spec.Burst = &traffic.BurstSpec{Len: c.BurstLen, Peak: c.BurstPeak}
	}
	// Pattern parameters are checked by tcfg.Validate, against the mesh.
	return ncfg, tcfg, nil
}

// Validate reports the first reason the job cannot run, nil when it is
// well-formed. The sweep service maps a non-nil result to a client
// error (HTTP 400) at submission time, before a worker is spent on it.
func (j TrafficJob) Validate() error {
	ncfg, tcfg, err := j.Configs()
	if err != nil {
		return err
	}
	return tcfg.Validate(ncfg)
}

// Run executes the job: an independent sim.Clock, mesh and injector
// set per call, so any number of jobs run concurrently without sharing
// simulator state. ctx bounds the run in
// wall-clock time and maxCycles (0 = unbounded) in simulated time; both
// surface as errors from the kernel's cancellation hook, never as hangs.
// It is the one run path of a traffic experiment: sweepd's default
// runner and nocsim both call it.
func (j TrafficJob) Run(ctx context.Context, maxCycles uint64) (traffic.Result, error) {
	ncfg, tcfg, err := j.Configs()
	if err != nil {
		return traffic.Result{}, err
	}
	tcfg.Ctx, tcfg.MaxCycles = ctx, maxCycles
	return traffic.Run(ncfg, tcfg)
}
