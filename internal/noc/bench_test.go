package noc

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkSimulationRate measures how many router-cycles per second
// the two-phase kernel sustains on an idle 4x4 mesh.
func BenchmarkSimulationRate(b *testing.B) {
	b.ReportAllocs()
	clk := sim.NewClock()
	net, err := New(clk, Defaults(4, 4))
	if err != nil {
		b.Fatal(err)
	}
	_ = net
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.Step()
	}
}

// BenchmarkLoadedMeshCycle measures cycle cost with traffic in flight.
func BenchmarkLoadedMeshCycle(b *testing.B) {
	b.ReportAllocs()
	// Per-cycle cost benchmark: each iteration must be one cycle, so
	// dead-cycle skipping is disabled.
	clk := kernelClock(b, "nowarp")
	net, err := New(clk, Defaults(4, 4))
	if err != nil {
		b.Fatal(err)
	}
	var eps []*Endpoint
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			ep, err := net.NewEndpoint(Addr{x, y})
			if err != nil {
				b.Fatal(err)
			}
			eps = append(eps, ep)
		}
	}
	r := sim.NewRand(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%64 == 0 {
			src := eps[r.Intn(len(eps))]
			dst := Addr{r.Intn(4), r.Intn(4)}
			_, _ = src.Send(dst, make([]uint16, 16))
		}
		clk.Step()
		for _, ep := range eps {
			for {
				if _, ok := ep.Recv(); !ok {
					break
				}
			}
		}
	}
}

// BenchmarkFlitSteadyState measures the per-cycle cost of a wormhole
// held open end to end: the flit train of newFlitTrain, a continuous
// stream of max-size packets crossing a 4x1 mesh on the 2-cycle
// handshake. Refilling the source queue and draining the sink happen
// with the timer stopped, but packet delivery does not: every 514th
// step or so a packet completes. allocs/op divides the total by b.N
// and truncates, so it would hide a per-packet allocation;
// TestFlitPathAllocs is the exact check that the flit path, sends and
// deliveries allocate nothing.
func BenchmarkFlitSteadyState(b *testing.B) {
	b.ReportAllocs()
	ft := newFlitTrain(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft.clk.Step()
		if ft.src.QueuedFlits() < 600 {
			b.StopTimer()
			ft.refill(b)
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/sec")
}

// BenchmarkKernelActivity compares the activity-scheduled kernel with
// the dense reference on a 16x16 mesh (256 routers + 256 endpoints)
// across traffic levels. Each iteration is one simulated cycle, so
// ns/op is the per-cycle cost; the cycles/sec metric is its inverse.
// The activity kernel's advantage is largest on idle and low-injection
// meshes, where most of the mesh sleeps.
func BenchmarkKernelActivity(b *testing.B) {
	b.ReportAllocs()
	loads := []struct {
		name string
		rate float64 // offered flits/cycle/node
	}{
		{"idle", 0},
		{"inj0.2pct", 0.002},
		{"inj0.5pct", 0.005},
		{"inj1pct", 0.01},
	}
	// Per-cycle cost benchmark: one iteration = one cycle, so the
	// activity kernel runs without time warp.
	kernels := []struct {
		name   string
		kernel sim.Kernel
	}{
		{"activity", "nowarp"},
		{"dense", "dense"},
	}
	for _, load := range loads {
		for _, k := range kernels {
			b.Run(load.name+"/"+k.name, func(b *testing.B) {
				b.ReportAllocs()
				cfg := Defaults(16, 16)
				clk := kernelClock(b, k.kernel)
				net, err := New(clk, cfg)
				if err != nil {
					b.Fatal(err)
				}
				type node struct {
					ep  *Endpoint
					rng *sim.Rand
				}
				var nodes []node
				for x := 0; x < cfg.Width; x++ {
					for y := 0; y < cfg.Height; y++ {
						ep, err := net.NewEndpoint(Addr{x, y})
						if err != nil {
							b.Fatal(err)
						}
						nodes = append(nodes, node{ep, sim.NewRand(uint64(x*31 + y))})
					}
				}
				pktProb := load.rate / 10 // 8-flit payload + header + size
				cycle := func() {
					if pktProb > 0 {
						for _, n := range nodes {
							if n.rng.Bool(pktProb) && n.ep.QueuedFlits() < 64 {
								dst := Addr{n.rng.Intn(cfg.Width), n.rng.Intn(cfg.Height)}
								if dst != n.ep.Addr() {
									_, _ = n.ep.Send(dst, make([]uint16, 8))
								}
							}
						}
					}
					clk.Step()
					for _, n := range nodes {
						for {
							if _, ok := n.ep.Recv(); !ok {
								break
							}
						}
					}
				}
				for i := 0; i < 1000; i++ { // reach steady state untimed
					cycle()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cycle()
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/sec")
			})
		}
	}
}

// BenchmarkServiceEncodeDecode measures the service codec.
func BenchmarkServiceEncodeDecode(b *testing.B) {
	b.ReportAllocs()
	m := &Message{Svc: SvcWriteMem, Src: Addr{1, 0}, Addr: 0x100, Words: make([]uint16, 32)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := m.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeMessage(p); err != nil {
			b.Fatal(err)
		}
	}
}
