package traffic

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/vcd"
)

// TestShardedMatchesUnsharded: splitting the mesh into clock domains —
// without parallelism — must not change any result: the cross-domain
// mirror links keep the exact cycle timing of local wires.
func TestShardedMatchesUnsharded(t *testing.T) {
	for _, rate := range []float64{0.002, 0.05} {
		cfg := noc.Defaults(8, 8)
		tcfg := Config{
			Rate: rate, PayloadFlits: 8, Seed: 42,
			Warmup: 500, Measure: 3000, Drain: 30000,
		}
		ref, err := Run(cfg, tcfg)
		if err != nil {
			t.Fatal(err)
		}
		tcfg.Domains = 4
		sharded, err := Run(cfg, tcfg)
		if err != nil {
			t.Fatal(err)
		}
		if ref != sharded {
			t.Fatalf("rate %.3f: sharding changed results:\n  unsharded %+v\n  sharded   %+v", rate, ref, sharded)
		}
		if ref.MeasuredPackets == 0 {
			t.Fatalf("rate %.3f: experiment measured no packets", rate)
		}
	}
}

// TestParallelMatchesSerial: the parallel horizon-protocol execution of
// a sharded mesh must reproduce the serial lockstep run bit-exactly, on
// 8x8 and 16x16 uniform traffic.
func TestParallelMatchesSerial(t *testing.T) {
	cases := []struct {
		w, h    int
		rate    float64
		measure int
	}{
		{8, 8, 0.05, 3000},
		{8, 8, 0.002, 3000},
		{16, 16, 0.002, 2000},
	}
	for _, c := range cases {
		cfg := noc.Defaults(c.w, c.h)
		tcfg := Config{
			Rate: c.rate, PayloadFlits: 8, Seed: 42,
			Warmup: 300, Measure: c.measure, Drain: 30000,
			Domains: 4,
		}
		serial, err := Run(cfg, tcfg)
		if err != nil {
			t.Fatal(err)
		}
		tcfg.Parallel = true
		parallel, err := Run(cfg, tcfg)
		if err != nil {
			t.Fatal(err)
		}
		if serial != parallel {
			t.Fatalf("%dx%d rate %.3f: parallel diverged:\n  serial   %+v\n  parallel %+v",
				c.w, c.h, c.rate, serial, parallel)
		}
		if serial.MeasuredPackets == 0 {
			t.Fatalf("%dx%d rate %.3f: experiment measured no packets", c.w, c.h, c.rate)
		}
	}
}

// TestParallelDeterminism: a fixed partition must yield identical
// results run after run and under different GOMAXPROCS values.
func TestParallelDeterminism(t *testing.T) {
	cfg := noc.Defaults(8, 8)
	tcfg := Config{
		Rate: 0.05, PayloadFlits: 8, Seed: 7,
		Warmup: 300, Measure: 2000, Drain: 30000,
		Domains: 4, Parallel: true,
	}
	ref, err := Run(cfg, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 8} {
		old := runtime.GOMAXPROCS(procs)
		got, err := Run(cfg, tcfg)
		runtime.GOMAXPROCS(old)
		if err != nil {
			t.Fatal(err)
		}
		if got != ref {
			t.Fatalf("GOMAXPROCS=%d: results diverged:\n  ref %+v\n  got %+v", procs, ref, got)
		}
	}
}

// boundaryRun builds a 8x2 mesh (optionally sharded into 2 or 4 column
// strips), preloads long packets that cross every strip boundary — so
// wormholes span domains for many consecutive cycles — plus reverse
// traffic to contend for the same links, drains it, and returns the
// delivered count, per-router stats and a VCD dump of router (4,0) (a
// boundary router under every partition used here).
func boundaryRun(t *testing.T, domains int, parallel bool) (uint64, []noc.RouterStats, []byte) {
	t.Helper()
	cfg := noc.Defaults(8, 2)
	var (
		net *noc.Network
		clk *sim.Clock
		err error
	)
	if domains > 1 {
		g := sim.NewGroup(domains)
		g.SetParallel(parallel)
		net, err = noc.NewSharded(g, cfg, noc.StripDomains(cfg, domains, 0))
		clk = g.Clock(0)
	} else {
		clk = sim.NewClock()
		net, err = noc.New(clk, cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := vcd.NewWriter(&buf)
	noc.AttachVCD(net, w, noc.Addr{X: 4, Y: 0})
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}

	eps := make(map[noc.Addr]*noc.Endpoint)
	for x := 0; x < cfg.Width; x++ {
		for y := 0; y < cfg.Height; y++ {
			a := noc.Addr{X: x, Y: y}
			ep, err := net.NewEndpoint(a)
			if err != nil {
				t.Fatal(err)
			}
			eps[a] = ep
		}
	}
	// Long packets left-to-right and right-to-left along both rows:
	// every wormhole crosses every strip boundary and stays open across
	// it for >100 cycles, while the opposing flow contends for buffers.
	payload := make([]uint16, 60)
	for y := 0; y < cfg.Height; y++ {
		for k := 0; k < 3; k++ {
			if _, err := eps[noc.Addr{X: 0, Y: y}].Send(noc.Addr{X: 7, Y: y}, payload); err != nil {
				t.Fatal(err)
			}
			if _, err := eps[noc.Addr{X: 7, Y: y}].Send(noc.Addr{X: 0, Y: 1 - y}, payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := clk.RunUntilQuiescent(1_000_000); err != nil {
		t.Fatal(err)
	}
	var stats []noc.RouterStats
	for x := 0; x < cfg.Width; x++ {
		for y := 0; y < cfg.Height; y++ {
			stats = append(stats, net.Router(noc.Addr{X: x, Y: y}).Stats())
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return net.Delivered(), stats, buf.Bytes()
}

// TestPartitionBoundaryStress: packets crossing domain boundaries
// mid-wormhole must behave exactly as on an unsharded mesh — same
// deliveries, same per-router flit/grant/wait statistics, and a
// byte-identical VCD dump of a boundary router — in lockstep and in
// parallel, for 2- and 4-way partitions.
func TestPartitionBoundaryStress(t *testing.T) {
	refDelivered, refStats, refVCD := boundaryRun(t, 1, false)
	if refDelivered == 0 {
		t.Fatal("reference run delivered nothing; test is vacuous")
	}
	for _, c := range []struct {
		domains  int
		parallel bool
	}{{2, false}, {2, true}, {4, false}, {4, true}} {
		delivered, stats, dump := boundaryRun(t, c.domains, c.parallel)
		if delivered != refDelivered {
			t.Errorf("domains=%d parallel=%v: delivered %d, want %d",
				c.domains, c.parallel, delivered, refDelivered)
		}
		for i := range refStats {
			if stats[i] != refStats[i] {
				t.Errorf("domains=%d parallel=%v: router %d stats diverged:\n  ref %+v\n  got %+v",
					c.domains, c.parallel, i, refStats[i], stats[i])
			}
		}
		if !bytes.Equal(dump, refVCD) {
			t.Errorf("domains=%d parallel=%v: VCD dump differs from unsharded reference (%d vs %d bytes)",
				c.domains, c.parallel, len(dump), len(refVCD))
		}
	}
}
