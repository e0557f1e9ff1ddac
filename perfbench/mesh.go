package main

import (
	"errors"
	"fmt"

	"repro/internal/noc"
	"repro/internal/traffic"
)

// meshShape fixes everything about a mesh job but its seed.
type meshShape struct {
	cfg  noc.Config
	tcfg traffic.Config
}

// The two mesh workloads: the paper's 16x16 Hermes defaults (8-bit
// flits, 2-flit buffers, XY routing) at the ROADMAP's reference low
// load with nocsim's default phase lengths, and at the saturated point
// of BenchmarkAblFlitStreaming.
var (
	meshLowload = meshShape{noc.Defaults(16, 16), traffic.Config{
		Rate: 0.002, PayloadFlits: 8, Warmup: 5000, Measure: 20000, Drain: 40000}}
	meshSaturated = meshShape{noc.Defaults(16, 16), traffic.Config{
		Rate: 0.40, PayloadFlits: 32, Warmup: 500, Measure: 2000, Drain: 30000}}
)

// meshStats are the exact simulated statistics of one mesh job. A
// change that only speeds up the simulator must leave them unchanged.
type meshStats struct {
	Result   traffic.Result `json:"result"`
	Cycles   uint64         `json:"cycles"`
	FlitHops uint64         `json:"flit_hops"`
}

// latencyMargin is the tolerance, in cycles, by which a delivered
// packet may beat the paper's latency formula; the repository's own
// formula tests use the same margin.
const latencyMargin = 4

// checkMesh verifies a finished mesh job: every packet sent was
// delivered, the mesh is quiescent, and no packet beat the formula.
func checkMesh(net *noc.Network) error {
	cfg := net.Config()
	var sent, received uint64
	for x := 0; x < cfg.Width; x++ {
		for y := 0; y < cfg.Height; y++ {
			if ep := net.Endpoint(noc.Addr{X: x, Y: y}); ep != nil {
				sent += ep.Sent()
				received += ep.Received()
			}
		}
	}
	if sent != received || received != net.Delivered() {
		return fmt.Errorf("packets sent %d, received %d, delivered %d", sent, received, net.Delivered())
	}
	if !net.Clock().Quiescent() {
		return errors.New("mesh not quiescent after the drain")
	}
	for _, m := range net.Completed() {
		if want := noc.FormulaLatency(cfg, m.Hops, m.Len); m.NetworkLatency()+latencyMargin < want {
			return fmt.Errorf("packet %d (%d hops, %d flits) took %d cycles, formula minimum %d",
				m.ID, m.Hops, m.Len, m.NetworkLatency(), want)
		}
	}
	return nil
}

// routerTotals sums the statistics of every router of the mesh.
func routerTotals(net *noc.Network) noc.RouterStats {
	cfg := net.Config()
	var t noc.RouterStats
	for x := 0; x < cfg.Width; x++ {
		for y := 0; y < cfg.Height; y++ {
			s := net.Router(noc.Addr{X: x, Y: y}).Stats()
			for p := range s.FlitsOut {
				t.FlitsOut[p] += s.FlitsOut[p]
			}
			t.PacketsRouted += s.PacketsRouted
			t.BlockedAttempts += s.BlockedAttempts
			t.WaitCycles += s.WaitCycles
			t.BufferedFlitCycles += s.BufferedFlitCycles
		}
	}
	return t
}

// inputBuffers counts the connected input buffers of a mesh: one local
// port per router plus one per directed link between neighbours.
func inputBuffers(cfg noc.Config) int {
	w, h := cfg.Width, cfg.Height
	return w*h + 2*((w-1)*h+w*(h-1))
}

// run runs one traffic.Run job. With a tracer it records the
// job's spans and per-layer counts as well.
func (sh meshShape) run(seed uint64, tr *tracer, job int) (jobResult, error) {
	tcfg := sh.tcfg
	tcfg.Seed = seed
	if tr != nil {
		return sh.runTraced(tcfg, tr, job)
	}
	var net *noc.Network
	var built stamp
	tcfg.OnNetwork = func(n *noc.Network) { net, built = n, now() }
	start := now()
	res, err := traffic.Run(sh.cfg, tcfg)
	end := now()
	if err != nil {
		return jobResult{}, err
	}
	return sh.finish(res, net, start.until(built), built.until(end))
}

func (sh meshShape) finish(res traffic.Result, net *noc.Network, setup, timed phase) (jobResult, error) {
	if err := checkMesh(net); err != nil {
		return jobResult{}, err
	}
	st := meshStats{Result: res, Cycles: net.Clock().Cycle(), FlitHops: routerTotals(net).TotalFlits()}
	return jobResult{setup: setup, timed: timed, cycles: st.Cycles, stats: st}, nil
}

// runTraced is run with spans around traffic.Run and its phases: the
// build ends at the OnNetwork callback, warmup and measure end at
// probes on their boundary cycles, the drain at the last executed step
// and the collection at the return.
func (sh meshShape) runTraced(tcfg traffic.Config, tr *tracer, job int) (jobResult, error) {
	var (
		net                        *noc.Network
		cc                         *clockCounts
		tBuilt, tWarm, tMsr, tLast int64
		rtBuilt, rtWarm, rtMsr     runtimeSnap
		built                      stamp
	)
	warmEnd, msrEnd := uint64(tcfg.Warmup), uint64(tcfg.Warmup+tcfg.Measure)
	rt0 := readRuntime()
	start := now()
	t0 := tr.now()
	tcfg.OnNetwork = func(n *noc.Network) {
		net = n
		built, tBuilt = now(), tr.now()
		rtBuilt = readRuntime()
		cc = watchClock(n.Clock())
		cc.onCycle = func(cycle uint64) {
			switch {
			case cycle == warmEnd:
				tWarm, rtWarm = tr.now(), readRuntime()
			case cycle == msrEnd:
				tMsr, rtMsr = tr.now(), readRuntime()
			case cycle > msrEnd:
				tLast = tr.now() // the drain ends at the last executed step
			}
		}
	}
	res, err := traffic.Run(sh.cfg, tcfg)
	end, tEnd := now(), tr.now()
	rtEnd := readRuntime()
	if err != nil {
		return jobResult{}, err
	}
	root := tr.add("traffic.Run", t0, tEnd, -1, job)
	tr.add("traffic.build", t0, tBuilt, root, job)
	tr.add("traffic.warmup", tBuilt, tWarm, root, job)
	tr.add("traffic.measure", tWarm, tMsr, root, job)
	if tLast == 0 {
		tLast = tMsr // nothing left to drain
	}
	tr.add("traffic.drain", tMsr, tLast, root, job)
	tr.add("traffic.collect", tLast, tEnd, root, job)

	jr, err := sh.finish(res, net, start.until(built), built.until(end))
	if err != nil {
		return jobResult{}, err
	}
	routers := routerTotals(net)
	clk := cc.snap()
	jr.layers = &layerSample{
		clk:       clk,
		timedClk:  clk,
		routers:   routers,
		timedHops: routers.TotalFlits(),
		inputs:    inputBuffers(sh.cfg),
		timedNS:   tEnd - tBuilt,
		times: map[string]float64{
			"traffic.build_s":   secs(tBuilt - t0),
			"traffic.warmup_s":  secs(tWarm - tBuilt),
			"traffic.measure_s": secs(tMsr - tWarm),
			"traffic.drain_s":   secs(tLast - tMsr),
			"traffic.collect_s": secs(tEnd - tLast),
		},
		build:        rtBuilt.sub(rt0),
		measure:      rtMsr.sub(rtWarm),
		measureCyc:   msrEnd - warmEnd,
		timedRuntime: rtEnd.sub(rtBuilt),
		offered:      res.Offered,
		accepted:     res.Accepted,
		packets:      uint64(res.MeasuredPackets),
	}
	return jr, nil
}
