package traffic

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/bits"
	"strings"
	"testing"

	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/vcd"
)

// specObs is everything a pattern differential compares: the experiment
// Result, every router's statistics and a VCD dump of a boundary
// router.
type specObs struct {
	res   Result
	stats []noc.RouterStats
	vcd   []byte
}

// runSpecKernel runs one spec under one kernel configuration and
// captures the full observable surface via the OnNetwork hook.
func runSpecKernel(t *testing.T, ncfg noc.Config, tcfg Config) specObs {
	t.Helper()
	var net *noc.Network
	var buf bytes.Buffer
	var w *vcd.Writer
	tcfg.OnNetwork = func(n *noc.Network) {
		net = n
		w = vcd.NewWriter(&buf)
		// (2,1) sits on the strip boundary of both the 2- and 4-way
		// partitions of a 4-wide mesh.
		noc.AttachVCD(n, w, noc.Addr{X: 2, Y: 1})
		if err := w.Begin(); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Run(ncfg, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	o := specObs{res: res, vcd: buf.Bytes()}
	for x := 0; x < ncfg.Width; x++ {
		for y := 0; y < ncfg.Height; y++ {
			o.stats = append(o.stats, net.Router(noc.Addr{X: x, Y: y}).Stats())
		}
	}
	return o
}

// TestPatternCrossKernelIdentical: every pattern of the library must
// produce a bit-identical Result, identical per-router statistics and a
// byte-identical boundary-router VCD dump on every kernel mode —
// dense, sparse without time warp, sharded lockstep, parallel. The
// reference is the serial sparse time-warped kernel.
func TestPatternCrossKernelIdentical(t *testing.T) {
	ncfg := noc.Defaults(4, 4) // power-of-two node count, so bitrev is legal
	base := Config{
		Rate: 0.05, PayloadFlits: 4, Seed: 42,
		Warmup: 200, Measure: 1200, Drain: 20000,
	}
	// The trace spec replays a recording of the uniform workload.
	recCfg := base
	recCfg.Spec = PatternSpec{Name: "uniform"}
	_, rec, err := RunRecorded(ncfg, recCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) == 0 {
		t.Fatal("recorded trace is empty; trace differential is vacuous")
	}

	group := []noc.Addr{{X: 0, Y: 0}, {X: 3, Y: 1}, {X: 1, Y: 3}, {X: 3, Y: 3}}
	specs := []struct {
		label string
		spec  PatternSpec
		rate  float64
	}{
		{"uniform", PatternSpec{Name: "uniform"}, 0.05},
		{"transpose", PatternSpec{Name: "transpose"}, 0.05},
		{"bitcomp", PatternSpec{Name: "bitcomp"}, 0.05},
		{"bitrev", PatternSpec{Name: "bitrev"}, 0.05},
		{"hotspot", PatternSpec{Name: "hotspot", Hotspots: []HotspotSpec{
			{X: 1, Y: 1, Weight: 0.3}, {X: 2, Y: 3, Weight: 0.2},
		}}, 0.05},
		{"bursty", PatternSpec{Name: "bursty", Burst: &BurstSpec{Len: 4, Peak: 0.4}}, 0.05},
		{"bursty-transpose", PatternSpec{Name: "transpose", Burst: &BurstSpec{Len: 6, Peak: 0.3}}, 0.04},
		{"multicast-path", PatternSpec{Name: "multicast", Group: group}, 0.02},
		{"multicast-oracle", PatternSpec{Name: "multicast", Group: group, MulticastUnicast: true}, 0.02},
		{"trace", PatternSpec{Name: "trace", Trace: rec}, 0.05},
	}
	kernels := []struct {
		name string
		mod  func(*Config)
	}{
		{"dense", func(c *Config) { c.DenseKernel = true }},
		{"nowarp", func(c *Config) { c.NoTimeWarp = true }},
		{"sharded2", func(c *Config) { c.Domains = 2 }},
		{"parallel2", func(c *Config) { c.Domains = 2; c.Parallel = true }},
		{"sharded4", func(c *Config) { c.Domains = 4 }},
		{"parallel4", func(c *Config) { c.Domains = 4; c.Parallel = true }},
	}
	for _, s := range specs {
		s := s
		t.Run(s.label, func(t *testing.T) {
			tcfg := base
			tcfg.Spec = s.spec
			tcfg.Rate = s.rate
			ref := runSpecKernel(t, ncfg, tcfg)
			if ref.res.MeasuredPackets == 0 {
				t.Fatalf("%s: reference run measured no packets; differential is vacuous", s.label)
			}
			for _, k := range kernels {
				kcfg := tcfg
				k.mod(&kcfg)
				got := runSpecKernel(t, ncfg, kcfg)
				if got.res != ref.res {
					t.Errorf("%s/%s: results diverged:\n  ref %+v\n  got %+v", s.label, k.name, ref.res, got.res)
				}
				for i := range ref.stats {
					if got.stats[i] != ref.stats[i] {
						t.Errorf("%s/%s: router %d stats diverged:\n  ref %+v\n  got %+v",
							s.label, k.name, i, ref.stats[i], got.stats[i])
					}
				}
				if !bytes.Equal(got.vcd, ref.vcd) {
					t.Errorf("%s/%s: boundary VCD dump differs from reference (%d vs %d bytes)",
						s.label, k.name, len(got.vcd), len(ref.vcd))
				}
			}
		})
	}
}

// TestWeightedHotspotHistogram: destination frequencies of the weighted
// hotspot pattern must match the configured weights, with the
// remainder spread over the rest of the mesh.
func TestWeightedHotspotHistogram(t *testing.T) {
	ncfg := noc.Defaults(8, 8)
	spots := []HotspotSpec{{X: 2, Y: 3, Weight: 0.3}, {X: 7, Y: 0, Weight: 0.15}}
	pat := WeightedHotspots(spots)
	r := sim.NewRand(9)
	src := noc.Addr{X: 0, Y: 0}
	const n = 200_000
	counts := make(map[noc.Addr]int)
	for i := 0; i < n; i++ {
		d := pat(src, r, ncfg)
		if d == src {
			t.Fatalf("hotspot pattern returned the source")
		}
		counts[d]++
	}
	for i, h := range spots {
		got := float64(counts[noc.Addr{X: h.X, Y: h.Y}]) / n
		// The uniform remainder also lands on the spot occasionally:
		// weight + (1-sum)/63 within a 1% absolute tolerance.
		want := h.Weight + (1-0.45)/63
		if got < want-0.01 || got > want+0.01 {
			t.Errorf("spot %d frequency %.4f, want %.4f ± 0.01", i, got, want)
		}
	}
	// A non-spot node sees only its uniform share.
	other := float64(counts[noc.Addr{X: 4, Y: 4}]) / n
	if want := (1 - 0.45) / 63; other < want-0.005 || other > want+0.005 {
		t.Errorf("non-spot frequency %.4f, want %.4f ± 0.005", other, want)
	}
}

// TestDeterministicPatternsBijective: transpose, bit-complement and
// bit-reverse must be involutions on their non-fallback domain and map
// the mesh onto itself without collisions.
func TestDeterministicPatternsBijective(t *testing.T) {
	r := sim.NewRand(1)
	for _, mesh := range []struct{ w, h int }{{4, 4}, {8, 4}, {8, 8}} {
		ncfg := noc.Defaults(mesh.w, mesh.h)
		pats := []struct {
			name  string
			pat   Pattern
			fixed func(a noc.Addr) bool
		}{
			{"transpose", Transpose, func(a noc.Addr) bool {
				return a.X == a.Y || a.Y >= mesh.w || a.X >= mesh.h
			}},
			{"bitcomp", BitComplement, func(a noc.Addr) bool {
				return a.X == mesh.w-1-a.X && a.Y == mesh.h-1-a.Y
			}},
			{"bitrev", BitReverse, func(a noc.Addr) bool {
				n := uint(mesh.w * mesh.h)
				idx := uint(a.Y*mesh.w + a.X)
				return bits.Reverse(idx)>>(bits.UintSize-(bits.Len(n)-1)) == idx
			}},
		}
		for _, p := range pats {
			seen := make(map[noc.Addr]noc.Addr)
			for x := 0; x < mesh.w; x++ {
				for y := 0; y < mesh.h; y++ {
					src := noc.Addr{X: x, Y: y}
					if p.fixed(src) {
						continue // falls back to uniform: excluded from the permutation
					}
					d := p.pat(src, r, ncfg)
					if d.X < 0 || d.X >= mesh.w || d.Y < 0 || d.Y >= mesh.h {
						t.Fatalf("%dx%d %s: %s maps off-mesh to %s", mesh.w, mesh.h, p.name, src, d)
					}
					if prev, dup := seen[d]; dup {
						t.Fatalf("%dx%d %s: %s and %s both map to %s", mesh.w, mesh.h, p.name, prev, src, d)
					}
					seen[d] = src
					if back := p.pat(d, r, ncfg); !p.fixed(d) && back != src {
						t.Fatalf("%dx%d %s: not an involution: %s→%s→%s", mesh.w, mesh.h, p.name, src, d, back)
					}
				}
			}
		}
	}
}

// TestBurstyArrivalProcess: recorded bursty injections must conserve
// the configured long-run rate while clustering into bursts whose mean
// length matches the configured geometric distribution. With the peak
// far above the offered rate the gap distribution is sharply bimodal,
// so a threshold cleanly separates intra-burst gaps from off periods.
func TestBurstyArrivalProcess(t *testing.T) {
	ncfg := noc.Defaults(2, 2)
	const burstLen, rate = 8.0, 0.02
	tcfg := Config{
		Rate: rate, PayloadFlits: 1, Seed: 11,
		Warmup: 0, Measure: 500_000, Drain: 50_000,
		// A queue cap far above what a burst can pile up: backpressure
		// skips would otherwise shave the accepted load below offered.
		QueueCap: 4096,
		Spec:     PatternSpec{Name: "bursty", Burst: &BurstSpec{Len: burstLen, Peak: 0.9}},
	}
	res, rec, err := RunRecorded(ncfg, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted < rate*0.9 || res.Accepted > rate*1.1 {
		t.Errorf("accepted load %.4f not within 10%% of offered %.4f", res.Accepted, rate)
	}
	// Reconstruct bursts per node: pOn = 0.3 (mean gap ≈ 3 cycles), off
	// gaps average hundreds of cycles, so 50 cycles splits the modes.
	perNode := make(map[noc.Addr][]uint64)
	for _, e := range rec {
		perNode[e.Src] = append(perNode[e.Src], e.Cycle)
	}
	var bursts, packets int
	for _, cycles := range perNode {
		cur := 1
		for i := 1; i < len(cycles); i++ {
			if cycles[i]-cycles[i-1] > 50 {
				bursts++
				packets += cur
				cur = 1
			} else {
				cur++
			}
		}
		bursts++
		packets += cur
	}
	if bursts < 100 {
		t.Fatalf("only %d bursts reconstructed; test is underpowered", bursts)
	}
	mean := float64(packets) / float64(bursts)
	if mean < burstLen*0.8 || mean > burstLen*1.2 {
		t.Errorf("mean burst length %.2f, want %.1f ± 20%%", mean, burstLen)
	}
}

// TestTraceReplayReproducesRecordedRun: replaying a recording must
// reproduce the recorded run's Result bit for bit, and the trace must
// survive an NDJSON round trip unchanged.
func TestTraceReplayReproducesRecordedRun(t *testing.T) {
	ncfg := noc.Defaults(4, 4)
	tcfg := Config{
		Rate: 0.08, PayloadFlits: 4, Seed: 5,
		Warmup: 100, Measure: 1500, Drain: 20000,
		Spec: PatternSpec{Name: "hotspot", Hotspots: []HotspotSpec{{X: 3, Y: 3, Weight: 0.4}}},
	}
	res, rec, err := RunRecorded(ncfg, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) == 0 {
		t.Fatal("empty recording")
	}

	var buf bytes.Buffer
	if err := WriteTrace(&buf, rec); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(rec) {
		t.Fatalf("round trip lost entries: %d of %d", len(back), len(rec))
	}
	for i := range rec {
		if back[i] != rec[i] {
			t.Fatalf("entry %d changed in round trip: %+v vs %+v", i, back[i], rec[i])
		}
	}

	replay := tcfg
	replay.Spec = PatternSpec{Name: "trace", Trace: back}
	got, err := Run(ncfg, replay)
	if err != nil {
		t.Fatal(err)
	}
	if got != res {
		t.Fatalf("replay diverged from recorded run:\n  recorded %+v\n  replayed %+v", res, got)
	}

	// Recording the replay must reproduce the trace itself.
	_, rec2, err := RunRecorded(ncfg, replay)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2) != len(rec) {
		t.Fatalf("re-recording changed trace length: %d of %d", len(rec2), len(rec))
	}
	for i := range rec {
		if rec2[i] != rec[i] {
			t.Fatalf("re-recorded entry %d diverged: %+v vs %+v", i, rec2[i], rec[i])
		}
	}
}

// TestPatternFixedSeedDeterminism: every pattern must yield an
// identical Result when re-run with the same seed.
func TestPatternFixedSeedDeterminism(t *testing.T) {
	ncfg := noc.Defaults(4, 4)
	for _, spec := range []PatternSpec{
		{Name: "uniform"},
		{Name: "bitrev"},
		{Name: "hotspot", Hotspots: []HotspotSpec{{X: 0, Y: 3, Weight: 0.5}}},
		{Name: "bursty"},
		{Name: "multicast", Group: []noc.Addr{{X: 3, Y: 0}, {X: 0, Y: 3}}},
	} {
		tcfg := Config{
			Rate: 0.03, PayloadFlits: 4, Seed: 77,
			Warmup: 100, Measure: 1000, Drain: 20000,
			Spec: spec,
		}
		a, err := Run(ncfg, tcfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(ncfg, tcfg)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: same seed, different results:\n  %+v\n  %+v", spec.Name, a, b)
		}
	}
}

// TestSpecValidation: malformed pattern parameters must be rejected by
// Config.Validate (and therefore surface as client errors in sweepd),
// with a message naming the offending field.
func TestSpecValidation(t *testing.T) {
	ncfg := noc.Defaults(6, 6)
	cases := []struct {
		label string
		ncfg  noc.Config
		spec  PatternSpec
		rate  float64
		want  string
	}{
		{"unknown name", ncfg, PatternSpec{Name: "zipf"}, 0.05, "unknown pattern"},
		{"hotspot without spots", ncfg, PatternSpec{Name: "hotspot"}, 0.05, "without hotspots"},
		{"hotspot off mesh", ncfg, PatternSpec{Name: "hotspot",
			Hotspots: []HotspotSpec{{X: 6, Y: 0, Weight: 0.2}}}, 0.05, "outside"},
		{"hotspot zero weight", ncfg, PatternSpec{Name: "hotspot",
			Hotspots: []HotspotSpec{{X: 1, Y: 1, Weight: 0}}}, 0.05, "weight"},
		{"hotspot weights over 1", ncfg, PatternSpec{Name: "hotspot",
			Hotspots: []HotspotSpec{{X: 1, Y: 1, Weight: 0.7}, {X: 2, Y: 2, Weight: 0.6}}}, 0.05, "sum"},
		{"bitrev non power of two", ncfg, PatternSpec{Name: "bitrev"}, 0.05, "power-of-two"},
		{"empty trace", ncfg, PatternSpec{Name: "trace"}, 0.05, "empty trace"},
		{"trace entry off mesh", ncfg, PatternSpec{Name: "trace", Trace: []TraceEntry{
			{Cycle: 1, Src: noc.Addr{X: 0, Y: 0}, Dst: noc.Addr{X: 9, Y: 9}, Payload: 1},
		}}, 0.05, "off the"},
		{"trace entry cycle zero", ncfg, PatternSpec{Name: "trace", Trace: []TraceEntry{
			{Cycle: 0, Src: noc.Addr{X: 0, Y: 0}, Dst: noc.Addr{X: 1, Y: 1}, Payload: 1},
		}}, 0.05, "cycle"},
		{"trace entry bad payload", ncfg, PatternSpec{Name: "trace", Trace: []TraceEntry{
			{Cycle: 1, Src: noc.Addr{X: 0, Y: 0}, Dst: noc.Addr{X: 1, Y: 1}, Payload: 0},
		}}, 0.05, "payload"},
		{"empty multicast group", ncfg, PatternSpec{Name: "multicast"}, 0.05, "empty destination set"},
		{"multicast duplicate", ncfg, PatternSpec{Name: "multicast",
			Group: []noc.Addr{{X: 1, Y: 1}, {X: 1, Y: 1}}}, 0.05, "duplicate"},
		{"multicast off mesh", ncfg, PatternSpec{Name: "multicast",
			Group: []noc.Addr{{X: 0, Y: 6}}}, 0.05, "outside"},
		{"burst len below 1", ncfg, PatternSpec{Name: "bursty",
			Burst: &BurstSpec{Len: 0.5, Peak: 0.5}}, 0.05, "burst length"},
		{"burst peak over 1", ncfg, PatternSpec{Name: "bursty",
			Burst: &BurstSpec{Len: 4, Peak: 1.5}}, 0.05, "peak rate"},
		{"rate at burst peak", ncfg, PatternSpec{Name: "bursty",
			Burst: &BurstSpec{Len: 4, Peak: 0.3}}, 0.3, "below the burst peak"},
	}
	for _, c := range cases {
		cfg := Config{
			Rate: c.rate, PayloadFlits: 4,
			Warmup: 10, Measure: 100, Spec: c.spec,
		}
		err := cfg.Validate(c.ncfg)
		if err == nil {
			t.Errorf("%s: accepted", c.label)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.label, err, c.want)
		}
	}
	// Sanity: the well-formed versions pass.
	for _, spec := range []PatternSpec{
		{Name: "uniform"},
		{Name: "bursty"},
		{Name: "hotspot", Hotspots: []HotspotSpec{{X: 1, Y: 1, Weight: 0.5}}},
		{Name: "multicast", Group: []noc.Addr{{X: 1, Y: 1}}},
		{Name: "trace", Trace: []TraceEntry{
			{Cycle: 1, Src: noc.Addr{X: 0, Y: 0}, Dst: noc.Addr{X: 1, Y: 1}, Payload: 1},
		}},
	} {
		cfg := Config{Rate: 0.05, PayloadFlits: 4, Warmup: 10, Measure: 100, Spec: spec}
		if err := cfg.Validate(ncfg); err != nil {
			t.Errorf("well-formed %s spec rejected: %v", spec.Name, err)
		}
	}
	// RunRecorded refuses multicast workloads.
	if _, _, err := RunRecorded(ncfg, Config{
		Rate: 0.05, PayloadFlits: 4, Warmup: 10, Measure: 100,
		Spec: PatternSpec{Name: "multicast", Group: []noc.Addr{{X: 1, Y: 1}}},
	}); err == nil {
		t.Error("RunRecorded accepted a multicast workload")
	}
}

// TestSpecJSONRoundTrip: a PatternSpec must survive the JSON round trip
// sweep jobs put it through.
func TestSpecJSONRoundTrip(t *testing.T) {
	in := PatternSpec{
		Name:     "hotspot",
		Hotspots: []HotspotSpec{{X: 1, Y: 2, Weight: 0.25}},
		Burst:    &BurstSpec{Len: 4, Peak: 0.4},
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out PatternSpec
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || len(out.Hotspots) != 1 || out.Hotspots[0] != in.Hotspots[0] ||
		out.Burst == nil || *out.Burst != *in.Burst {
		t.Fatalf("round trip changed the spec: %+v vs %+v", out, in)
	}
	if fmt.Sprintf("%s", b) == "" {
		t.Fatal("empty encoding")
	}
}
