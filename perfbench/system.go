package main

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/noc"
)

// The system-edge workload: the paper's Figure 1 system with its host
// at 115200 baud (SerialDiv 434 at 50 MHz, the rate of
// AblTimeWarp/div434), downloading the Sobel kernel to both processors
// over RS-232 and feeding a small image through them.
const (
	systemSerialDiv = 434
	imageW, imageH  = 16, 6
)

var systemProcs = []int{1, 2}

// systemStats are the exact simulated statistics of one system-edge
// job.
type systemStats struct {
	Cycles        uint64 `json:"cycles"`         // core.New to the end of Driver.Process
	ProcessCycles uint64 `json:"process_cycles"` // Driver.Process alone
	Instructions  uint64 `json:"instructions"`   // sum of CPU.Retired
}

// systemImage generates the job's input image: a bright block on a
// dark field, at a seed-chosen place, plus noise.
func systemImage(seed uint64) edge.Image {
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	img := edge.NewImage(imageW, imageH)
	x0, y0 := r.IntN(imageW/2), r.IntN(imageH/2)
	for y := range img {
		for x := range img[y] {
			v := uint8(20)
			if x >= x0 && x < x0+imageW/2 && y >= y0 && y < y0+imageH/2 {
				v = 200
			}
			img[y][x] = v + uint8(r.IntN(32))
		}
	}
	return img
}

// checkSystem verifies a finished system-edge job: the image equals
// the golden Sobel of the input and no processor reported an error.
func checkSystem(sys *core.System, in, out edge.Image) error {
	if !out.Equal(edge.Sobel(in)) {
		return errors.New("edge map differs from the golden Sobel of the input")
	}
	for _, id := range systemProcs {
		if err := sys.Proc(id).CPU().Err(); err != nil {
			return fmt.Errorf("processor %d: %w", id, err)
		}
	}
	return nil
}

func retired(sys *core.System) (instr, cycles uint64) {
	for _, id := range systemProcs {
		c := sys.Proc(id).CPU()
		instr += c.Retired
		cycles += c.Cycles
	}
	return instr, cycles
}

// systemJob runs one system-edge job: core.New, Boot, the serial
// download of the kernel (Driver.LoadKernels) and Driver.Process of
// the seed's image. The first three are the paper's initialization
// procedure and form the set-up; Process is the timed phase.
func systemJob(seed uint64, tr *tracer, job int) (jobResult, error) {
	img := systemImage(seed)
	cfg := core.Default()
	cfg.SerialDiv = systemSerialDiv

	// A traced job reads the clocks and counters at each call boundary:
	// 0 before New, 1 after New, 2 after Boot, 3 after LoadKernels and
	// 4 after Process.
	type boundary struct {
		t           int64
		rt          runtimeSnap
		clk         clockSnap
		hops, instr uint64
	}
	var (
		cc *clockCounts
		bs []boundary
	)
	mark := func(sys *core.System) {
		if tr == nil {
			return
		}
		b := boundary{t: tr.now(), rt: readRuntime()}
		if sys != nil {
			if cc == nil {
				cc = watchClock(sys.Clk)
			}
			b.clk, b.hops = cc.snap(), routerTotals(sys.Net).TotalFlits()
			b.instr, _ = retired(sys)
		}
		bs = append(bs, b)
	}

	mark(nil)
	start := now()
	sys, err := core.New(cfg)
	if err != nil {
		return jobResult{}, err
	}
	mark(sys)
	if err := sys.Boot(); err != nil {
		return jobResult{}, err
	}
	mark(sys)
	d := edge.NewDriver(sys, edge.Serial, imageW)
	if err := d.LoadKernels(systemProcs...); err != nil {
		return jobResult{}, err
	}
	mark(sys)
	loaded := now()
	out, cycles, err := d.Process(img, systemProcs...)
	end := now()
	mark(sys)
	if err != nil {
		return jobResult{}, err
	}
	if err := checkSystem(sys, img, out); err != nil {
		return jobResult{}, err
	}
	instr, r8cycles := retired(sys)
	st := systemStats{Cycles: sys.Clk.Cycle(), ProcessCycles: cycles, Instructions: instr}
	jr := jobResult{setup: start.until(loaded), timed: loaded.until(end), cycles: cycles, stats: st}
	if tr == nil {
		return jr, nil
	}

	root := tr.add("edge.job", bs[0].t, bs[4].t, -1, job)
	for i, name := range []string{"core.New", "core.Boot", "edge.LoadKernels", "edge.Process"} {
		tr.add(name, bs[i].t, bs[i+1].t, root, job)
	}
	jr.layers = &layerSample{
		clk:       bs[4].clk,
		timedClk:  bs[4].clk.sub(bs[3].clk),
		loadClk:   bs[3].clk.sub(bs[2].clk),
		routers:   routerTotals(sys.Net),
		timedHops: bs[4].hops - bs[3].hops,
		inputs:    inputBuffers(noc.Defaults(2, 2)),
		timedNS:   bs[4].t - bs[3].t,
		times: map[string]float64{
			"core.boot_s":    secs(bs[2].t - bs[1].t),
			"core.load_s":    secs(bs[3].t - bs[2].t),
			"core.process_s": secs(bs[4].t - bs[3].t),
		},
		build:             bs[1].rt.sub(bs[0].rt),
		measure:           bs[4].rt.sub(bs[3].rt),
		measureCyc:        cycles,
		timedRuntime:      bs[4].rt.sub(bs[3].rt),
		instructions:      instr,
		timedInstructions: bs[4].instr - bs[3].instr,
		r8Cycles:          r8cycles,
	}
	return jr, nil
}
