// Benchmarks regenerating every experiment of the paper (the section
// list in internal/experiments):
// one Benchmark per table/figure/claim plus the ablations. Custom
// metrics report the figures of merit (simulated cycles, Gbit/s,
// speedups) alongside the usual ns/op.
package repro

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/floorplan"
	"repro/internal/noc"
	"repro/internal/r8"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// BenchmarkE1LatencyFormula times a single-packet latency probe and
// reports the measured network latency next to the paper's model.
func BenchmarkE1LatencyFormula(b *testing.B) {
	b.ReportAllocs()
	cfg := noc.Defaults(8, 8)
	src, dst := noc.Addr{X: 0, Y: 0}, noc.Addr{X: 7, Y: 0}
	var last uint64
	for i := 0; i < b.N; i++ {
		lat, err := traffic.ProbeLatency(cfg, src, dst, 16, "")
		if err != nil {
			b.Fatal(err)
		}
		last = lat
	}
	b.ReportMetric(float64(last), "cycles")
	b.ReportMetric(float64(noc.FormulaLatency(cfg, 8, 18)), "formula-cycles")
}

// BenchmarkE2PeakThroughput drives the five-connection router peak.
func BenchmarkE2PeakThroughput(b *testing.B) {
	b.ReportAllocs()
	var res traffic.PeakResult
	for i := 0; i < b.N; i++ {
		r, err := traffic.PeakThroughput(noc.Defaults(3, 3), 20, "")
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.MeasuredGbps, "Gbit/s")
	b.ReportMetric(100*res.Efficiency, "%-of-peak")
}

// BenchmarkE3BufferDepth sweeps input buffer depth under saturation.
func BenchmarkE3BufferDepth(b *testing.B) {
	b.ReportAllocs()
	for _, depth := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			cfg := noc.Defaults(4, 4)
			cfg.BufDepth = depth
			var delivered float64
			for i := 0; i < b.N; i++ {
				res, err := traffic.Run(cfg, traffic.Config{
					Rate: 0.40, PayloadFlits: 8, Seed: 11,
					Warmup: 2000, Measure: 6000, Drain: 20000,
				})
				if err != nil {
					b.Fatal(err)
				}
				delivered = res.Delivered
			}
			b.ReportMetric(delivered, "flits/cycle/node")
		})
	}
}

// BenchmarkE6Floorplan anneals the Figure 7 instance.
func BenchmarkE6Floorplan(b *testing.B) {
	b.ReportAllocs()
	p := floorplan.MultiNoC()
	var cost float64
	for i := 0; i < b.N; i++ {
		res, err := p.Anneal(42, 20000)
		if err != nil {
			b.Fatal(err)
		}
		cost = res.Cost
	}
	b.ReportMetric(cost, "hpwl")
}

// BenchmarkE7SerialLink measures a host write+read round trip over the
// bit-level RS-232 model.
func BenchmarkE7SerialLink(b *testing.B) {
	b.ReportAllocs()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		sys, err := core.New(core.Default())
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.Boot(); err != nil {
			b.Fatal(err)
		}
		start := sys.Clk.Cycle()
		memAddr := noc.Addr{X: 1, Y: 1}
		if err := sys.Host.WriteMemory(memAddr, 0, make([]uint16, 16)); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.ReadMemory(memAddr, 0, 16); err != nil {
			b.Fatal(err)
		}
		cycles = sys.Clk.Cycle() - start
	}
	b.ReportMetric(float64(cycles), "cycles/roundtrip")
}

// BenchmarkE8EdgeDetect runs the Figure 10 application with one and
// two processors.
func BenchmarkE8EdgeDetect(b *testing.B) {
	b.ReportAllocs()
	img := edge.NewImage(16, 10)
	r := sim.NewRand(5)
	for y := range img {
		for x := range img[y] {
			img[y][x] = uint8(r.Intn(256))
		}
	}
	for _, n := range []int{1, 2} {
		b.Run(fmt.Sprintf("%dproc", n), func(b *testing.B) {
			b.ReportAllocs()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				sys, err := core.New(core.Default())
				if err != nil {
					b.Fatal(err)
				}
				if err := sys.Boot(); err != nil {
					b.Fatal(err)
				}
				d := edge.NewDriver(sys, edge.Direct, 16)
				procs := []int{1, 2}[:n]
				if err := d.LoadKernels(procs...); err != nil {
					b.Fatal(err)
				}
				_, c, err := d.Process(img, procs...)
				if err != nil {
					b.Fatal(err)
				}
				cycles = c
			}
			b.ReportMetric(float64(cycles), "cycles/image")
		})
	}
}

// BenchmarkSystemEdge runs one job of perfbench's system-edge workload
// per iteration: the Figure 1 system at 115200 baud (SerialDiv 434)
// boots, downloads the Sobel kernel to both processors over RS-232 and
// feeds a 16x6 image through them. It is the profile target for the
// processor and serial layers; process-steps is what TestSystemEdgeSteps
// bounds, and process-ns/job the wall time of Driver.Process, the phase
// perfbench's system-edge norm_jobs_per_s times.
func BenchmarkSystemEdge(b *testing.B) {
	b.ReportAllocs()
	var steps uint64
	var process time.Duration
	for i := 0; i < b.N; i++ {
		var d time.Duration
		steps, d = runSystemEdge(b)
		process += d
	}
	b.ReportMetric(float64(steps), "process-steps")
	b.ReportMetric(float64(process.Nanoseconds())/float64(b.N), "process-ns/job")
}

// runSystemEdge runs BenchmarkSystemEdge's job under the default
// kernel, checks the edge map and returns the steps the clock executed
// in Driver.Process and its wall time.
func runSystemEdge(tb testing.TB) (uint64, time.Duration) {
	img := edge.NewImage(16, 6)
	r := sim.NewRand(7)
	for y := range img {
		for x := range img[y] {
			img[y][x] = uint8(r.Intn(256))
		}
	}
	cfg := core.Default()
	cfg.SerialDiv = 434
	sys, err := core.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := sys.Boot(); err != nil {
		tb.Fatal(err)
	}
	d := edge.NewDriver(sys, edge.Serial, img.W())
	if err := d.LoadKernels(1, 2); err != nil {
		tb.Fatal(err)
	}
	var steps uint64
	sys.Clk.Probe(func(uint64) { steps++ })
	start := time.Now()
	out, _, err := d.Process(img, 1, 2)
	elapsed := time.Since(start)
	if err != nil {
		tb.Fatal(err)
	}
	if !out.Equal(edge.Sobel(img)) {
		tb.Fatal("the edge map differs from the golden Sobel")
	}
	return steps, elapsed
}

// TestSystemEdgeSteps bounds the steps the default kernel executes in
// BenchmarkSystemEdge's Driver.Process: 15% over the 3,410 it executes
// while a computing core sleeps through its plans and a serial line
// carries whole frames. The count is exact and needs no baseline from
// the machine that runs it, so a lost fast path fails here without
// timing noise.
func TestSystemEdgeSteps(t *testing.T) {
	const bound = 3_920
	if got, _ := runSystemEdge(t); got > bound {
		t.Errorf("Driver.Process executed %d steps, want at most %d", got, bound)
	}
}

// TestSystemSetupAllocs bounds the heap objects of system-edge's
// set-up, the phases before BenchmarkSystemEdge's Driver.Process:
// core.New, Boot and LoadKernels(1, 2) at SerialDiv 434. LoadKernels
// assembles the kernel once for both processors, and the assembler
// allocates per line, not per character. The bound is 15% over the 292
// objects the set-up allocates. Like TestSystemEdgeSteps' count, this
// one is exact, so it needs no timing.
func TestSystemSetupAllocs(t *testing.T) {
	const bound = 336
	cfg := core.Default()
	cfg.SerialDiv = 434
	got := testing.AllocsPerRun(1, func() {
		sys, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Boot(); err != nil {
			t.Fatal(err)
		}
		if err := edge.NewDriver(sys, edge.Serial, 16).LoadKernels(1, 2); err != nil {
			t.Fatal(err)
		}
	})
	if got > bound {
		t.Errorf("system-edge set-up allocated %.0f objects, want at most %d", got, bound)
	}
}

// BenchmarkE9WaitNotify measures the synchronization round trip.
func BenchmarkE9WaitNotify(b *testing.B) {
	b.ReportAllocs()
	const rounds = 20
	var perRound float64
	for i := 0; i < b.N; i++ {
		sys, err := core.New(core.Default())
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.Boot(); err != nil {
			b.Fatal(err)
		}
		p1 := fmt.Sprintf(`
			LDI R5, %d
			CLR R1
		loop:	LDI R2, 0xFFFD
			LDI R3, 2
			ST R3, R1, R2
			LDI R2, 0xFFFE
			ST R3, R1, R2
			DEC R5
			JMPNZ loop
			HALT`, rounds)
		p2 := fmt.Sprintf(`
			LDI R5, %d
			CLR R1
			LDI R3, 1
		loop:	LDI R2, 0xFFFE
			ST R3, R1, R2
			LDI R2, 0xFFFD
			ST R3, R1, R2
			DEC R5
			JMPNZ loop
			HALT`, rounds)
		if _, err := sys.LoadProgramDirect(p1, 1); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.LoadProgramDirect(p2, 2); err != nil {
			b.Fatal(err)
		}
		if err := sys.Activate(2); err != nil {
			b.Fatal(err)
		}
		if err := sys.Activate(1); err != nil {
			b.Fatal(err)
		}
		start := sys.Clk.Cycle()
		if err := sys.RunUntilHalted(10_000_000, 1, 2); err != nil {
			b.Fatal(err)
		}
		perRound = float64(sys.Clk.Cycle()-start) / rounds
	}
	b.ReportMetric(perRound, "cycles/round")
}

// BenchmarkE11CPI measures simulated instruction throughput of the
// cycle-accurate core and reports its CPI.
func BenchmarkE11CPI(b *testing.B) {
	b.ReportAllocs()
	bus := &benchRAM{}
	add, _ := r8.Inst{Op: r8.ADD, Rt: 1, Rs1: 2, Rs2: 3}.Encode()
	jmp, _ := r8.Inst{Op: r8.JMP, Disp: -128}.Encode()
	for i := 0; i < 127; i++ {
		bus.m[i] = add
	}
	bus.m[127] = jmp
	cpu := r8.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu.Step(bus)
	}
	b.ReportMetric(cpu.CPI(), "CPI")
}

type benchRAM struct{ m [4096]uint16 }

func (r *benchRAM) Read(a uint16) (uint16, bool) { return r.m[a%4096], true }
func (r *benchRAM) Write(a, v uint16) bool       { r.m[a%4096] = v; return true }

// BenchmarkE12SeaOfProcessors scales the parallel reduction.
func BenchmarkE12SeaOfProcessors(b *testing.B) {
	b.ReportAllocs()
	const totalWork = 840
	for _, n := range []int{1, 2, 4, 7, 14} {
		b.Run(fmt.Sprintf("%dprocs", n), func(b *testing.B) {
			b.ReportAllocs()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cfg, err := core.Scaled(4, 4, 14, 1)
				if err != nil {
					b.Fatal(err)
				}
				sys, err := core.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := sys.Boot(); err != nil {
					b.Fatal(err)
				}
				chunk := totalWork / n
				src := fmt.Sprintf(`
					.equ N, %d
					CLR R0
					CLR R1
					LDI R2, data
					CLR R3
				loop:	LD R4, R2, R3
					ADD R1, R1, R4
					INC R3
					LDI R5, N
					SUB R6, R3, R5
					JMPNZ loop
					LDI R7, 0x0100
					ST R1, R7, R0
					HALT
				data:	.space %d`, chunk, chunk)
				ids := make([]int, n)
				for i := range ids {
					ids[i] = i + 1
				}
				if _, err := sys.LoadProgramDirect(src, ids...); err != nil {
					b.Fatal(err)
				}
				start := sys.Clk.Cycle()
				for _, id := range ids {
					if err := sys.Activate(id); err != nil {
						b.Fatal(err)
					}
				}
				if err := sys.RunUntilHalted(50_000_000, ids...); err != nil {
					b.Fatal(err)
				}
				cycles = sys.Clk.Cycle() - start
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkAblKernelSchedule compares the three kernel configurations
// on a full 16x16-mesh traffic experiment (warmup + measure + drain at
// 0.2% injection — the regime the big-mesh experiments spend most of
// their time in): activity scheduling with time warping (the default),
// activity scheduling stepping every cycle, and the dense reference.
// The reported metric is simulated cycles per wall-clock second; all
// three produce bit-identical Results (TestSparseKernelMatchesDense,
// TestTimeWarpMatchesNoWarp). About 19 components evaluate per step,
// and an awake router usually carries one wormhole, so it reads only
// the ports that wormhole uses. In a CPU profile of 400 activity jobs
// the kernel's step loop takes 23% flat, Router.Eval 29% cumulative,
// Router.Commit 18% (settled 4%) and Router.Idle 5%.
func BenchmarkAblKernelSchedule(b *testing.B) {
	b.ReportAllocs()
	const simCycles = 500 + 3000 // warmup + measure (drain adds a tail)
	for _, tc := range []struct {
		name   string
		kernel sim.Kernel
	}{
		{"activity", ""},
		{"activity-nowarp", "nowarp"},
		{"dense", "dense"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			cfg := meshLowload
			cfg.Kernel = tc.kernel
			for i := 0; i < b.N; i++ {
				if _, err := traffic.Run(noc.Defaults(16, 16), cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(simCycles)*float64(b.N)/b.Elapsed().Seconds(), "simcycles/sec")
		})
	}
}

// meshLowload is the job of BenchmarkAblKernelSchedule and
// TestMeshLowloadEvals, on the default 16x16 mesh.
var meshLowload = traffic.Config{Rate: 0.002, PayloadFlits: 8, Seed: 3, Warmup: 500, Measure: 3000, Drain: 20000}

// TestMeshLowloadEvals bounds what the default kernel executes in
// BenchmarkAblKernelSchedule/activity's job, counted as perfbench
// counts them: the executed steps, and the evaluations, ActiveCount
// summed over those steps. Each bound is 15% over today's count, 3,790
// steps and 70,810 evaluations: about 19 of the 768 components awake
// per step, the routers and endpoints a few wormholes cross and the
// injectors' timers. The counts are exact, so a change that keeps
// routers or endpoints awake longer, or steps dead cycles, fails here
// without timing noise.
func TestMeshLowloadEvals(t *testing.T) {
	const maxSteps, maxEvals = 4_358, 81_431
	var steps, evals uint64
	cfg := meshLowload
	cfg.OnNetwork = func(n *noc.Network) {
		clk := n.Clock()
		clk.Probe(func(uint64) {
			steps++
			evals += uint64(clk.ActiveCount())
		})
	}
	if _, err := traffic.Run(noc.Defaults(16, 16), cfg); err != nil {
		t.Fatal(err)
	}
	if steps > maxSteps || evals > maxEvals {
		t.Errorf("executed %d steps and %d evaluations, want at most %d and %d", steps, evals, maxSteps, maxEvals)
	}
}

// BenchmarkMeshSaturated measures the largest mesh the 4-bit Hermes
// addresses allow, driven into saturation: 16x16, uniform traffic at
// 0.40 flits/cycle/node offered with 32-flit payloads (the load of
// perfbench's mesh-saturated workload). Stalled routers and endpoints
// sleep, a router starts serving a waiting header on the clock edge,
// and one whose waiting headers all face busy outputs sleeps through
// their retries, so about 105 of its 768 components evaluate per
// cycle, and a router reads no link of a port that waits on a full
// buffer or an ack. In a CPU profile of 30 jobs Router.Eval takes 31%
// cumulative (its receiver and sender handshakes 10%), Router.Commit
// 21% (latching the staged ports 11%, settled 6%), Router.Idle 8%, the
// kernel's step loop 18% flat, its wire latches 7% and its wakes and
// timers 4%, so it is the profile target for the NoC models.
// A job allocates about 1,732 objects and 1.65 MB, 606 objects and
// 1.00 MB of them to build the mesh; the rest are the endpoints' word
// rings and queues as they grow to their backlogs, the metadata chunks,
// Completed's list and the latency histogram
// (TestMeshSaturatedAllocs, TestMeshSaturatedSteadyAllocs). The metric
// is simulated cycles (warmup + measure; the drain adds a tail) per
// wall-clock second.
func BenchmarkMeshSaturated(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runMeshSaturated(b)
	}
	b.ReportMetric(float64(meshSaturated.Warmup+meshSaturated.Measure)*float64(b.N)/b.Elapsed().Seconds(), "simcycles/sec")
}

// meshSaturated is the job of BenchmarkMeshSaturated and
// TestMeshSaturatedAllocs.
var meshSaturated = traffic.Config{Rate: 0.40, PayloadFlits: 32, Seed: 3, Warmup: 500, Measure: 2000, Drain: 30000}

func runMeshSaturated(tb testing.TB) {
	if _, err := traffic.Run(noc.Defaults(16, 16), meshSaturated); err != nil {
		tb.Fatal(err)
	}
}

// TestMeshSaturatedAllocs bounds the heap objects one
// BenchmarkMeshSaturated job allocates: building the mesh (about 600),
// each endpoint's word rings and queues as they grow to its backlog,
// and the metadata chunks, Completed's list and the latency histogram
// as they grow with the packets delivered. The count repeats within a
// few objects from run to run and under any GOMAXPROCS, so unlike a
// timing it needs no baseline from the machine that runs it. The bound
// is 15% over the 1,732 objects a job allocates.
func TestMeshSaturatedAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("a saturated 16x16 job takes about half a second")
	}
	const bound = 1_992
	if got := testing.AllocsPerRun(1, func() { runMeshSaturated(t) }); got > bound {
		t.Errorf("a saturated 16x16 job allocated %.0f objects, want at most %d", got, bound)
	}
}

// TestMeshSaturatedSteadyAllocs bounds what BenchmarkMeshSaturated's
// load allocates once every endpoint's word rings and queues have grown
// to its backlog: a 20,000-cycle warmup, in which each endpoint sends
// about ten packets, then at most one heap object per 20 packets
// delivered over a 10,000-cycle measurement window. Sends and
// deliveries allocate nothing then; what remains is the metadata
// table's chunk per 128 packets and the growth of Completed's list and
// of the latency histogram. A probe reads the runtime's malloc count at
// the window's first and last cycle.
func TestMeshSaturatedSteadyAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("a saturated 16x16 job of 30,000 cycles takes about two seconds")
	}
	cfg := meshSaturated
	cfg.Warmup, cfg.Measure = 20_000, 10_000
	from, to := uint64(cfg.Warmup), uint64(cfg.Warmup+cfg.Measure)
	var ms runtime.MemStats
	var mallocs, delivered uint64
	cfg.OnNetwork = func(n *noc.Network) {
		n.Clock().Probe(func(cycle uint64) {
			if cycle == from || cycle == to {
				runtime.ReadMemStats(&ms)
				mallocs, delivered = ms.Mallocs-mallocs, n.Delivered()-delivered
			}
		})
	}
	if _, err := traffic.Run(noc.Defaults(16, 16), cfg); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d objects allocated, %d packets delivered", mallocs, delivered)
	if delivered < 100 {
		t.Fatalf("%d packets delivered in cycles %d-%d; the window is not saturated", delivered, from, to)
	}
	if mallocs*20 > delivered {
		t.Errorf("%d objects allocated for %d packets delivered in cycles %d-%d, want at most 1 per 20",
			mallocs, delivered, from, to)
	}
}

// BenchmarkAblTimeWarp measures the time-warp kernel on the workload it
// targets: the E7 host round trip (auto-baud boot, a 16-word memory
// write and a 16-word read back over the bit-level RS-232 path), where
// nearly every simulated cycle is a dead cycle inside a UART bit. Two
// serial rates are swept: div16 is the simulation-compressed default,
// div434 is 115200 baud at the paper's 50 MHz clock — the rate real
// hardware would run, where the round trip is utterly serial-dominated.
// The stepped kernel's cost scales with the divisor; the warped
// kernel's cost is divisor-independent (the same bit edges happen, only
// further apart), which is exactly the event-proportionality the kernel
// is for. Both variants simulate the identical cycle count
// (TestTimeWarpBootTranscriptIdentical), so the wall-clock ratio per
// divisor is the speedup from skipping dead cycles.
func BenchmarkAblTimeWarp(b *testing.B) {
	b.ReportAllocs()
	for _, div := range []int{16, 434} {
		for _, tc := range []struct {
			name   string
			kernel sim.Kernel
		}{{"warp", ""}, {"nowarp", "nowarp"}} {
			b.Run(fmt.Sprintf("div%d/%s", div, tc.name), func(b *testing.B) {
				b.ReportAllocs()
				var cycles uint64
				for i := 0; i < b.N; i++ {
					// System construction is not part of the round trip
					// under measurement.
					b.StopTimer()
					cfg := core.Default()
					cfg.SerialDiv = div
					cfg.Kernel = tc.kernel
					sys, err := core.New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if err := sys.Boot(); err != nil {
						b.Fatal(err)
					}
					memAddr := noc.Addr{X: 1, Y: 1}
					if err := sys.Host.WriteMemory(memAddr, 0, make([]uint16, 16)); err != nil {
						b.Fatal(err)
					}
					if _, err := sys.ReadMemory(memAddr, 0, 16); err != nil {
						b.Fatal(err)
					}
					cycles = sys.Clk.Cycle()
				}
				b.ReportMetric(float64(cycles), "cycles/roundtrip")
				b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds(), "simcycles/sec")
			})
		}
	}
}

// BenchmarkAblRouting compares routing algorithms under transpose
// traffic.
func BenchmarkAblRouting(b *testing.B) {
	b.ReportAllocs()
	algos := []struct {
		name string
		fn   noc.RoutingFunc
	}{{"XY", noc.RouteXY}, {"YX", noc.RouteYX}, {"WestFirst", noc.RouteWestFirst}}
	for _, a := range algos {
		b.Run(a.name, func(b *testing.B) {
			b.ReportAllocs()
			cfg := noc.Defaults(4, 4)
			cfg.Routing = a.fn
			var lat float64
			for i := 0; i < b.N; i++ {
				res, err := traffic.Run(cfg, traffic.Config{
					Spec: traffic.PatternSpec{Name: "transpose"}, Rate: 0.15, PayloadFlits: 8, Seed: 5,
					Warmup: 2000, Measure: 6000, Drain: 20000,
				})
				if err != nil {
					b.Fatal(err)
				}
				lat = res.Latency.MeanCycles
			}
			b.ReportMetric(lat, "cycles-mean-latency")
		})
	}
}

// BenchmarkAblFlitWidth scales the flit width.
func BenchmarkAblFlitWidth(b *testing.B) {
	b.ReportAllocs()
	for _, bits := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("%dbit", bits), func(b *testing.B) {
			b.ReportAllocs()
			cfg := noc.Defaults(3, 3)
			cfg.FlitBits = bits
			var gbps float64
			for i := 0; i < b.N; i++ {
				res, err := traffic.PeakThroughput(cfg, 10, "")
				if err != nil {
					b.Fatal(err)
				}
				gbps = res.MeasuredGbps
			}
			b.ReportMetric(gbps, "Gbit/s")
		})
	}
}

// BenchmarkAblRouteCycles sweeps the per-hop routing time.
func BenchmarkAblRouteCycles(b *testing.B) {
	b.ReportAllocs()
	for _, rc := range []int{6, 14, 28} {
		b.Run(fmt.Sprintf("rc%d", rc), func(b *testing.B) {
			b.ReportAllocs()
			cfg := noc.Defaults(8, 1)
			cfg.RouteCycles = rc
			var lat uint64
			for i := 0; i < b.N; i++ {
				l, err := traffic.ProbeLatency(cfg, noc.Addr{X: 0, Y: 0}, noc.Addr{X: 7, Y: 0}, 16, "")
				if err != nil {
					b.Fatal(err)
				}
				lat = l
			}
			b.ReportMetric(float64(lat), "cycles")
		})
	}
}

// BenchmarkAblBaud sweeps the serial divisor for a program download.
func BenchmarkAblBaud(b *testing.B) {
	b.ReportAllocs()
	for _, div := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("div%d", div), func(b *testing.B) {
			b.ReportAllocs()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cfg := core.Default()
				cfg.SerialDiv = div
				sys, err := core.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := sys.Boot(); err != nil {
					b.Fatal(err)
				}
				start := sys.Clk.Cycle()
				if err := sys.Host.WriteMemory(noc.Addr{X: 0, Y: 1}, 0, make([]uint16, 64)); err != nil {
					b.Fatal(err)
				}
				cycles = sys.Clk.Cycle() - start
			}
			b.ReportMetric(float64(cycles), "cycles/64words")
		})
	}
}

// BenchmarkAblMulticast compares the two multicast delivery mechanisms
// on an 8x8 mesh with 8-destination groups: path-based forwarding (one
// wormhole absorbed and re-injected along a canonical column-snake
// visiting every member, cf. Tiwari's path multicast) against unicast
// replication (one independent wormhole per destination — the oracle
// the differentials check against). Both deliver payload-identical
// copies (TestMulticastPathMatchesUnicastOracle); the benchmark pins
// the link-traffic saving of the path scheme as wall-clock cost and
// delivered copies per second.
func BenchmarkAblMulticast(b *testing.B) {
	b.ReportAllocs()
	const simCycles = 500 + 3000 // warmup + measure (drain adds a tail)
	group := []noc.Addr{
		{X: 0, Y: 0}, {X: 7, Y: 0}, {X: 3, Y: 2}, {X: 5, Y: 3},
		{X: 1, Y: 5}, {X: 6, Y: 5}, {X: 0, Y: 7}, {X: 7, Y: 7},
	}
	for _, tc := range []struct {
		name    string
		unicast bool
	}{
		{"path", false},
		{"unicast", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			cfg := noc.Defaults(8, 8)
			var copies uint64
			for i := 0; i < b.N; i++ {
				var net *noc.Network
				if _, err := traffic.Run(cfg, traffic.Config{
					Spec: traffic.PatternSpec{
						Name: "multicast", Group: group, MulticastUnicast: tc.unicast,
					},
					Rate: 0.01, PayloadFlits: 8, Seed: 3,
					Warmup: 500, Measure: 3000, Drain: 20000,
					OnNetwork: func(n *noc.Network) { net = n },
				}); err != nil {
					b.Fatal(err)
				}
				copies = net.MulticastStats().Copies
			}
			b.ReportMetric(float64(simCycles)*float64(b.N)/b.Elapsed().Seconds(), "simcycles/sec")
			b.ReportMetric(float64(copies)*float64(b.N)/b.Elapsed().Seconds(), "copies/sec")
		})
	}
}

// BenchmarkPatternSaturation drives each synthetic pattern of the
// traffic library at a near-saturation offered load on an 8x8 mesh.
// The accepted-load metric is the saturation figure each pattern
// converges to (adversarial permutations saturate far below uniform);
// simcycles/sec tracks the kernel cost of the pattern's event mix, so
// a scheduling regression that only bites one destination distribution
// shows up here rather than in the uniform-only ablations.
func BenchmarkPatternSaturation(b *testing.B) {
	b.ReportAllocs()
	const simCycles = 500 + 2000 // warmup + measure (drain adds a tail)
	specs := []traffic.PatternSpec{
		{Name: "uniform"},
		{Name: "transpose"},
		{Name: "bitcomp"},
		{Name: "bitrev"},
		{Name: "hotspot", Hotspots: []traffic.HotspotSpec{
			{X: 3, Y: 3, Weight: 0.2}, {X: 4, Y: 4, Weight: 0.2}}},
		{Name: "bursty", Burst: &traffic.BurstSpec{Len: 8, Peak: 0.45}},
	}
	for _, spec := range specs {
		b.Run(spec.Name, func(b *testing.B) {
			b.ReportAllocs()
			cfg := noc.Defaults(8, 8)
			var accepted float64
			for i := 0; i < b.N; i++ {
				res, err := traffic.Run(cfg, traffic.Config{
					Spec: spec, Rate: 0.30, PayloadFlits: 8, Seed: 3,
					Warmup: 500, Measure: 2000, Drain: 30000,
				})
				if err != nil {
					b.Fatal(err)
				}
				accepted = res.Accepted
			}
			b.ReportMetric(float64(simCycles)*float64(b.N)/b.Elapsed().Seconds(), "simcycles/sec")
			b.ReportMetric(accepted, "accepted-flits/cycle")
		})
	}
}
