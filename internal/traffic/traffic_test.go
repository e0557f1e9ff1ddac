package traffic

import (
	"testing"

	"repro/internal/noc"
	"repro/internal/sim"
)

func TestPatterns(t *testing.T) {
	cfg := noc.Defaults(4, 4)
	r := sim.NewRand(1)
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			src := noc.Addr{X: x, Y: y}
			for i := 0; i < 50; i++ {
				if d := Uniform(src, r, cfg); d == src {
					t.Fatal("uniform returned source")
				}
			}
			if d := Transpose(src, r, cfg); d == src {
				t.Errorf("transpose(%s) = source", src)
			}
			if d := BitComplement(src, r, cfg); d == src {
				t.Errorf("bitcomplement(%s) = source", src)
			}
			hot := WeightedHotspots([]HotspotSpec{{X: 3, Y: 3, Weight: 1}})
			if src != (noc.Addr{X: 3, Y: 3}) {
				if d := hot(src, r, cfg); d != (noc.Addr{X: 3, Y: 3}) {
					t.Errorf("hotspot(%s) = %s", src, d)
				}
			}
		}
	}
}

func TestTransposeIsInvolution(t *testing.T) {
	cfg := noc.Defaults(5, 5)
	r := sim.NewRand(2)
	for x := 0; x < 5; x++ {
		for y := 0; y < 5; y++ {
			if x == y {
				continue
			}
			src := noc.Addr{X: x, Y: y}
			d := Transpose(src, r, cfg)
			if Transpose(d, r, cfg) != src {
				t.Errorf("transpose not involutive at %s", src)
			}
		}
	}
}

func TestLowLoadLatencyNearFormula(t *testing.T) {
	// At very light uniform load, mean latency must sit near the
	// zero-load formula value for the mean hop count.
	ncfg := noc.Defaults(4, 4)
	res, err := Run(ncfg, Config{
		Rate: 0.01, PayloadFlits: 8, Seed: 7,
		Warmup: 2000, Measure: 10000, Drain: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasuredPackets < 50 {
		t.Fatalf("only %d packets measured", res.MeasuredPackets)
	}
	// 4x4 uniform mean hop count (routers, incl. endpoints) is ~3.67;
	// formula latency for 10 flits ~ 14*3.67+20 ~ 71. Allow generous
	// slack for occasional contention.
	if res.Latency.MeanCycles < 40 || res.Latency.MeanCycles > 120 {
		t.Errorf("mean latency %.1f outside sane low-load band", res.Latency.MeanCycles)
	}
}

func TestThroughputSaturates(t *testing.T) {
	// Offered load far beyond capacity must deliver less than offered
	// (saturation), while tiny load delivers what is offered.
	ncfg := noc.Defaults(4, 4)
	low, err := Run(ncfg, Config{Rate: 0.02, PayloadFlits: 8, Seed: 3,
		Warmup: 2000, Measure: 8000, Drain: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if low.Delivered < low.Offered*0.8 {
		t.Errorf("low load not delivered: offered %.3f delivered %.3f", low.Offered, low.Delivered)
	}
	high, err := Run(ncfg, Config{Rate: 0.45, PayloadFlits: 8, Seed: 3,
		Warmup: 2000, Measure: 8000, Drain: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if high.Delivered > high.Offered*0.9 {
		t.Errorf("no saturation visible: offered %.3f delivered %.3f", high.Offered, high.Delivered)
	}
	// Past saturation the backlog piles up in the source queues, so the
	// congestion signal is total latency (queueing + network).
	if high.Latency.MeanTotalCycles < 2*low.Latency.MeanTotalCycles {
		t.Errorf("saturated total latency %.1f not clearly above low-load %.1f",
			high.Latency.MeanTotalCycles, low.Latency.MeanTotalCycles)
	}
}

func TestProbeLatencyMatchesFormula(t *testing.T) {
	ncfg := noc.Defaults(5, 5)
	for _, tc := range []struct {
		dst     noc.Addr
		payload int
	}{
		{noc.Addr{X: 1, Y: 0}, 4},
		{noc.Addr{X: 4, Y: 0}, 16},
		{noc.Addr{X: 4, Y: 4}, 64},
	} {
		got, err := ProbeLatency(ncfg, noc.Addr{X: 0, Y: 0}, tc.dst, tc.payload, "")
		if err != nil {
			t.Fatal(err)
		}
		want := noc.FormulaLatency(ncfg, noc.HopCount(noc.Addr{}, tc.dst), tc.payload+2)
		diff := int64(got) - int64(want)
		if diff < -4 || diff > 4 {
			t.Errorf("dst %s payload %d: measured %d, formula %d", tc.dst, tc.payload, got, want)
		}
	}
}

func TestPeakThroughputNearOneGbps(t *testing.T) {
	// Experiment E2: five simultaneous connections through one router
	// must approach the paper's 1 Gbit/s theoretical peak.
	res, err := PeakThroughput(noc.Defaults(3, 3), 20, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.TheoreticalGbps != 1.0 {
		t.Errorf("theoretical peak = %.3f Gbit/s, want 1.0", res.TheoreticalGbps)
	}
	if res.Efficiency < 0.90 || res.Efficiency > 1.001 {
		t.Errorf("efficiency %.3f outside [0.90, 1.0] (measured %.3f Gbit/s)",
			res.Efficiency, res.MeasuredGbps)
	}
}

// TestProbesCrossKernel: experiments E1 and E2, the paper's two
// headline NoC figures, read the same under every kernel. On a 4x4
// mesh, one packet from (0,0) to each destination, with 0, 1 and 16
// payload flits under XY, YX and west-first routing, has the same
// network latency under the default, nowarp and dense kernels, and so
// does the 3x3 router-peak result.
func TestProbesCrossKernel(t *testing.T) {
	kernels := []sim.Kernel{"", "nowarp", "dense"}
	for _, routing := range []struct {
		name string
		fn   noc.RoutingFunc
	}{{"xy", noc.RouteXY}, {"yx", noc.RouteYX}, {"westfirst", noc.RouteWestFirst}} {
		ncfg := noc.Defaults(4, 4)
		ncfg.Routing = routing.fn
		for n := range ncfg.Width * ncfg.Height {
			dst := noc.Addr{X: n % ncfg.Width, Y: n / ncfg.Width}
			for _, payload := range []int{0, 1, 16} {
				var lat [3]uint64
				for i, k := range kernels {
					var err error
					if lat[i], err = ProbeLatency(ncfg, noc.Addr{}, dst, payload, k); err != nil {
						t.Fatalf("kernel %q: %v", k, err)
					}
				}
				if lat[1] != lat[0] || lat[2] != lat[0] {
					t.Errorf("routing %s, dst %s, payload %d: latency %d, nowarp %d, dense %d",
						routing.name, dst, payload, lat[0], lat[1], lat[2])
				}
			}
		}
	}
	var peak [3]PeakResult
	for i, k := range kernels {
		var err error
		if peak[i], err = PeakThroughput(noc.Defaults(3, 3), 20, k); err != nil {
			t.Fatalf("kernel %q: %v", k, err)
		}
	}
	if peak[1] != peak[0] || peak[2] != peak[0] {
		t.Errorf("router peak %+v, nowarp %+v, dense %+v", peak[0], peak[1], peak[2])
	}
}

// TestBufferDepthImprovesThroughput is experiment E3's assertion: the
// paper says "larger buffers can provide enhanced NoC performance" —
// under saturating load, each doubling of the input buffers raises the
// delivered throughput (blocked flits hold fewer routers hostage).
func TestBufferDepthImprovesThroughput(t *testing.T) {
	depths := []int{1, 2, 4, 8, 16}
	var delivered []float64
	for _, depth := range depths {
		ncfg := noc.Defaults(4, 4)
		ncfg.BufDepth = depth
		res, err := Run(ncfg, Config{Rate: 0.40, PayloadFlits: 8, Seed: 11,
			Warmup: 3000, Measure: 10000, Drain: 30000})
		if err != nil {
			t.Fatal(err)
		}
		if res.MeasuredPackets < 100 {
			t.Fatalf("depth %d: only %d packets", depth, res.MeasuredPackets)
		}
		delivered = append(delivered, res.Delivered)
	}
	for i := 1; i < len(depths); i++ {
		if delivered[i] <= delivered[i-1] {
			t.Errorf("depth %d delivered %.3f, not above depth %d's %.3f",
				depths[i], delivered[i], depths[i-1], delivered[i-1])
		}
	}
	if delivered[len(delivered)-1] < 1.5*delivered[0] {
		t.Errorf("depth 16 (%.3f) not clearly above depth 1 (%.3f)",
			delivered[len(delivered)-1], delivered[0])
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(noc.Defaults(2, 2), Config{Rate: 0.1}); err == nil {
		t.Error("zero payload accepted")
	}
	if _, err := PeakThroughput(noc.Defaults(2, 2), 5, ""); err == nil {
		t.Error("2x2 peak experiment accepted")
	}
	if _, err := PeakThroughput(noc.Defaults(3, 3), 5, "bogus"); err == nil {
		t.Error("peak experiment accepted an unknown kernel")
	}
	if _, err := ProbeLatency(noc.Defaults(2, 2), noc.Addr{}, noc.Addr{X: 1}, 1, "bogus"); err == nil {
		t.Error("latency probe accepted an unknown kernel")
	}
}

func TestDeterministicResults(t *testing.T) {
	run := func() Result {
		r, err := Run(noc.Defaults(3, 3), Config{Rate: 0.1, PayloadFlits: 6, Seed: 99,
			Warmup: 500, Measure: 2000, Drain: 3000})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Accepted != b.Accepted || a.Latency.MeanCycles != b.Latency.MeanCycles ||
		a.MeasuredPackets != b.MeasuredPackets {
		t.Errorf("nondeterministic results: %+v vs %+v", a, b)
	}
}

func TestHotspotCongestsWorseThanUniform(t *testing.T) {
	// Concentrating 20% of traffic on one node must saturate earlier
	// than uniform at the same offered rate (classic hotspot shape).
	ncfg := noc.Defaults(4, 4)
	common := Config{Rate: 0.18, PayloadFlits: 8, Seed: 9,
		Warmup: 3000, Measure: 10000, Drain: 30000}
	uni := common
	uniRes, err := Run(ncfg, uni)
	if err != nil {
		t.Fatal(err)
	}
	hot := common
	hot.Spec = PatternSpec{Name: "hotspot", Hotspots: []HotspotSpec{{X: 1, Y: 1, Weight: 0.2}}}
	hotRes, err := Run(ncfg, hot)
	if err != nil {
		t.Fatal(err)
	}
	if hotRes.Delivered >= uniRes.Delivered {
		t.Errorf("hotspot delivered %.3f, uniform %.3f — expected hotspot to congest",
			hotRes.Delivered, uniRes.Delivered)
	}
	if hotRes.Latency.MeanTotalCycles <= uniRes.Latency.MeanTotalCycles {
		t.Errorf("hotspot total latency %.1f not above uniform %.1f",
			hotRes.Latency.MeanTotalCycles, uniRes.Latency.MeanTotalCycles)
	}
}

// TestRunDeterminism: two identically-seeded experiments must produce
// identical Results, bit for bit — the kernel's determinism contract
// survives activity scheduling.
func TestRunDeterminism(t *testing.T) {
	cfg := noc.Defaults(8, 8)
	tcfg := Config{
		Rate: 0.05, PayloadFlits: 8, Seed: 99,
		Warmup: 500, Measure: 3000, Drain: 20000,
	}
	a, err := Run(cfg, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same-seed results differ:\n  %+v\n  %+v", a, b)
	}
}

// TestSparseKernelMatchesDense: the activity-scheduled kernel must be
// indistinguishable from dense evaluation — same delivered counts, same
// latency distribution — across loads from near-idle to saturation.
func TestSparseKernelMatchesDense(t *testing.T) {
	for _, rate := range []float64{0.002, 0.05, 0.40} {
		cfg := noc.Defaults(6, 6)
		tcfg := Config{
			Rate: rate, PayloadFlits: 8, Seed: 42,
			Warmup: 500, Measure: 3000, Drain: 30000,
		}
		sparse, err := Run(cfg, tcfg)
		if err != nil {
			t.Fatal(err)
		}
		tcfg.Kernel = "dense"
		dense, err := Run(cfg, tcfg)
		if err != nil {
			t.Fatal(err)
		}
		if sparse != dense {
			t.Fatalf("rate %.3f: kernels diverge:\n  sparse %+v\n  dense  %+v", rate, sparse, dense)
		}
		if sparse.MeasuredPackets == 0 {
			t.Fatalf("rate %.3f: experiment measured no packets", rate)
		}
	}
}

// TestTimeWarpMatchesNoWarp: skipping dead cycles must be invisible —
// the same experiment with time warping on and off (activity scheduling
// on in both) produces bit-identical Results across loads, including
// near-idle rates where almost all simulated time is warped.
func TestTimeWarpMatchesNoWarp(t *testing.T) {
	for _, rate := range []float64{0.002, 0.05, 0.40} {
		cfg := noc.Defaults(6, 6)
		tcfg := Config{
			Rate: rate, PayloadFlits: 8, Seed: 42,
			Warmup: 500, Measure: 3000, Drain: 30000,
		}
		warp, err := Run(cfg, tcfg)
		if err != nil {
			t.Fatal(err)
		}
		tcfg.Kernel = "nowarp"
		dense, err := Run(cfg, tcfg)
		if err != nil {
			t.Fatal(err)
		}
		if warp != dense {
			t.Fatalf("rate %.3f: time-warp changed the experiment:\n  warp   %+v\n  nowarp %+v", rate, warp, dense)
		}
		if warp.MeasuredPackets == 0 {
			t.Fatalf("rate %.3f: experiment measured no packets", rate)
		}
	}
}

// TestQuiescentMatchesDenseRunUntil: draining a mesh with
// RunUntilQuiescent on the activity kernel delivers exactly the packets
// (and per-packet latencies) that the dense kernel's predicate-polling
// RunUntil delivers.
func TestQuiescentMatchesDenseRunUntil(t *testing.T) {
	const packets = 40
	run := func(k sim.Kernel) (uint64, []uint64) {
		cfg := noc.Defaults(4, 4)
		net, err := noc.New(cfg, k)
		if err != nil {
			t.Fatal(err)
		}
		clk := net.Clock()
		var eps []*noc.Endpoint
		for x := 0; x < 4; x++ {
			for y := 0; y < 4; y++ {
				ep, err := net.NewEndpoint(noc.Addr{X: x, Y: y})
				if err != nil {
					t.Fatal(err)
				}
				eps = append(eps, ep)
			}
		}
		rng := sim.NewRand(7)
		var metas []*noc.PacketMeta
		for i := 0; i < packets; i++ {
			src := eps[rng.Intn(len(eps))]
			dst := noc.Addr{X: rng.Intn(4), Y: rng.Intn(4)}
			if dst == src.Addr() {
				continue
			}
			m, err := src.Send(dst, make([]uint16, 6))
			if err != nil {
				t.Fatal(err)
			}
			metas = append(metas, m)
			clk.Run(uint64(rng.Intn(30)))
		}
		if k == "dense" {
			want := uint64(len(metas))
			if err := clk.RunUntil(func() bool { return net.Delivered() == want }, 1_000_000); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := clk.RunUntilQuiescent(1_000_000); err != nil {
				t.Fatal(err)
			}
		}
		var lats []uint64
		for _, m := range metas {
			if m.EjectCycle == 0 {
				t.Fatalf("kernel %q: packet %d undelivered", k, m.ID)
			}
			lats = append(lats, m.NetworkLatency())
		}
		return net.Delivered(), lats
	}
	dDel, dLats := run("dense")
	sDel, sLats := run("")
	if dDel != sDel {
		t.Fatalf("delivered: dense %d, quiescent %d", dDel, sDel)
	}
	for i := range dLats {
		if dLats[i] != sLats[i] {
			t.Fatalf("packet %d latency: dense %d, quiescent %d", i, dLats[i], sLats[i])
		}
	}
}

// TestNegativeDrainRunsZeroDrainCycles: a negative Drain must behave
// like the pre-quiescence harness (zero drain cycles), not wrap into an
// unbounded uint64 budget.
func TestNegativeDrainRunsZeroDrainCycles(t *testing.T) {
	res, err := Run(noc.Defaults(3, 3), Config{
		Rate: 0.30, PayloadFlits: 8, Seed: 1,
		Warmup: 100, Measure: 500, Drain: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasuredPackets == 0 {
		t.Fatal("no packets measured")
	}
}
