package edge

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/procip"
	"repro/internal/r8"
	"repro/internal/sim"
)

// procState is what the fixed-point differential compares of one
// Processor IP: the whole core, its banks' access counters and its
// control logic's counters.
type procState struct {
	CPU           r8.CPU
	Reads, Writes uint64
	Stats         procip.Stats
}

// flowState is the observable outcome of one Sobel flow.
type flowState struct {
	Loaded  []r8.CPU // the cores right after LoadKernels, asleep in their poll loops
	Out     Image
	Process uint64   // Driver.Process cycles
	Calls   []uint64 // Clock.Cycle after Boot, LoadKernels, Process and StopKernels
	Procs   []procState
}

// sobelFlow runs the Figure 10 flow on cfg under kernel k: load the
// kernel on every processor, process img, then stop the kernels. It
// also returns how many executed cycles ended with a running processor
// asleep at a fixed point.
func sobelFlow(t *testing.T, cfg core.Config, tr Transport, img Image, k sim.Kernel) (flowState, int) {
	t.Helper()
	cfg.Kernel = k
	sys, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sleeps := 0
	sys.Clk.Probe(func(uint64) {
		for _, p := range sys.Procs {
			if p.Active() && !p.Halted() && p.Idle() {
				sleeps++
			}
		}
	})
	if err := sys.Boot(); err != nil {
		t.Fatal(err)
	}
	var st flowState
	st.Calls = append(st.Calls, sys.Clk.Cycle())
	var procs []int
	for id := 1; id <= len(sys.Procs); id++ {
		procs = append(procs, id)
	}
	d := NewDriver(sys, tr, img.W())
	if err := d.LoadKernels(procs...); err != nil {
		t.Fatal(err)
	}
	st.Calls = append(st.Calls, sys.Clk.Cycle())
	for _, id := range procs {
		st.Loaded = append(st.Loaded, *sys.Proc(id).CPU())
	}
	if st.Out, st.Process, err = d.Process(img, procs...); err != nil {
		t.Fatal(err)
	}
	st.Calls = append(st.Calls, sys.Clk.Cycle())
	if !st.Out.Equal(Sobel(img)) {
		t.Fatalf("kernel %q: edge map differs from the golden Sobel", k)
	}
	if err := d.StopKernels(procs...); err != nil {
		t.Fatal(err)
	}
	st.Calls = append(st.Calls, sys.Clk.Cycle())
	for _, id := range procs {
		p := sys.Proc(id)
		cpu := *p.CPU()
		b := p.Banks()
		st.Procs = append(st.Procs, procState{cpu, b.Reads, b.Writes, p.Stats()})
	}
	return st, sleeps
}

// TestFixedPointSobelFlowMatchesDense runs the paper's edge-detection
// flow, whose kernels spend nearly all their cycles polling a flag,
// over both transports on the Figure 1 system and a scaled 4x4 one.
// Every kernel must reproduce the dense kernel's cores, bank counters,
// control-logic counters, cycle counts and image; the default kernel
// must actually have slept the cores.
func TestFixedPointSobelFlowMatchesDense(t *testing.T) {
	scaled, err := core.Scaled(4, 4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	img := testImage(8, 6)
	for _, sys := range []struct {
		name string
		cfg  core.Config
	}{{"fig1", core.Default()}, {"scaled4x4", scaled}} {
		for _, tr := range []struct {
			name string
			t    Transport
		}{{"serial", Serial}, {"direct", Direct}} {
			want, _ := sobelFlow(t, sys.cfg, tr.t, img, "dense")
			for _, k := range []sim.Kernel{"nowarp", ""} {
				got, sleeps := sobelFlow(t, sys.cfg, tr.t, img, k)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s: kernel %q diverges from dense:\n  dense %+v\n  got   %+v",
						sys.name, tr.name, k, want, got)
				}
				if k == "" && sleeps == 0 {
					t.Errorf("%s/%s: no processor slept under the default kernel", sys.name, tr.name)
				}
			}
		}
	}
}

// TestProcessCrossKernel runs the two flows whose processors compute
// between polls, on the Figure 1 system under every kernel: perfbench's
// system-edge job (the kernel downloaded to both processors over
// RS-232, then a 16x6 image over it, at SerialDiv 16 to stay short) and
// E8's (the kernel loaded through the memory backdoor, then a 16x10
// image over the Direct transport). Each must reproduce the dense
// kernel's cores, bank counters, image and the clock cycle after each
// call, and those cycles must be the ones recorded before cores slept
// on plans, so no call's stop cycle moved.
func TestProcessCrossKernel(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tr    Transport
		img   Image
		calls []uint64 // Clock.Cycle after Boot, LoadKernels, Process and StopKernels
	}{
		{"system-edge", Serial, testImage(16, 6), []uint64{224, 65_268, 174_426, 176_752}},
		{"e8-direct", Direct, testImage(16, 10), []uint64{224, 2_866, 10_660, 10_689}},
	} {
		want, _ := sobelFlow(t, core.Default(), tc.tr, tc.img, "dense")
		if !reflect.DeepEqual(want.Calls, tc.calls) {
			t.Errorf("%s: dense calls ended at cycles %v, want %v", tc.name, want.Calls, tc.calls)
		}
		for _, k := range []sim.Kernel{"nowarp", ""} {
			got, sleeps := sobelFlow(t, core.Default(), tc.tr, tc.img, k)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: kernel %q diverges from dense:\n  dense %+v\n  got   %+v", tc.name, k, want, got)
			}
			if k == "" && sleeps == 0 {
				t.Errorf("%s: no processor slept under the default kernel", tc.name)
			}
		}
	}
}
