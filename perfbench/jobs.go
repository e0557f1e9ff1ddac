package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
)

// jobResult is what one job of a job-loop workload (mesh-*,
// system-edge) reports.
type jobResult struct {
	setup, timed phase
	// cycles is the simulated cycle count of the timed phase.
	cycles uint64
	// stats holds the job's exact simulated statistics: compared with
	// the golden file at the default seed, and between the untraced and
	// traced runs of one input.
	stats any
	// layers is set by traced jobs only.
	layers *layerSample
}

// jobFunc runs one job on the input derived from seed; tr is nil for
// an untraced job.
type jobFunc func(seed uint64, tr *tracer, job int) (jobResult, error)

// jobSeed derives the k-th job input seed of a workload seed.
func jobSeed(seed uint64, k int) uint64 {
	return rand.New(rand.NewPCG(seed, uint64(k)+1)).Uint64()
}

// jobLoop runs a job-loop workload closed loop on one thread: the job
// inputs cycle through `inputs` seeds derived from the workload seed,
// and jobs run until the budget is spent and every input has run at
// least once. A traced run times each input untraced and then traced,
// back to back, so the pair shares the machine's state of the moment;
// the pair must simulate identical statistics.
func jobLoop(name string, fn jobFunc, inputs int, seed uint64, b budget, traced bool, golden []json.RawMessage) outcome {
	var (
		o                      outcome
		setups, setupsWall     []float64 // CPU and wall time
		timed, timedWall       []float64
		rates, refs            []float64
		tracedCPU, untracedCPU []float64
		samples                []*layerSample
		tr                     *tracer
	)
	if traced {
		tr = newTracer()
	}
	fail := func(k int, err error) {
		o.failed++
		o.fail(fmt.Sprintf("%s job %d (input %d): %v", name, o.attempted, k, err))
	}
	b.start()
	for k := 0; k < inputs || !b.spent(); k++ {
		in := k % inputs
		s := jobSeed(seed, in)
		o.attempted++
		// The reference runs beside every job (see reference.go).
		refs = append(refs, reference().Seconds())
		b.scale = refScale(median(refs))
		// Every job starts from a collected heap, as a fresh nocsim or
		// multinoc process would, so neither its time nor the peak RSS
		// depends on when the previous job's garbage gets collected.
		runtime.GC()
		r, err := fn(s, nil, o.attempted)
		switch {
		case err != nil || golden == nil:
		case in >= len(golden):
			err = fmt.Errorf("golden.json holds %d inputs, not %d", len(golden), inputs)
		default:
			err = matchGolden(r.stats, golden[in])
		}
		if err != nil {
			fail(in, err)
			continue
		}
		setups = append(setups, r.setup.cpu.Seconds())
		setupsWall = append(setupsWall, r.setup.wall.Seconds())
		timed = append(timed, r.timed.cpu.Seconds())
		timedWall = append(timedWall, r.timed.wall.Seconds())
		rates = append(rates, float64(r.cycles)/r.timed.wall.Seconds())
		if !traced {
			continue
		}
		o.attempted++
		runtime.GC()
		t, err := fn(s, tr, o.attempted)
		if err == nil && !reflect.DeepEqual(t.stats, r.stats) {
			err = fmt.Errorf("traced statistics %+v differ from untraced %+v", t.stats, r.stats)
		}
		if err != nil {
			fail(in, err)
			continue
		}
		tracedCPU = append(tracedCPU, t.timed.cpu.Seconds())
		untracedCPU = append(untracedCPU, r.timed.cpu.Seconds())
		t.layers.first = k < inputs
		samples = append(samples, t.layers)
	}

	scale := refScale(median(refs))
	if traced {
		o.metrics = layerMetrics(samples)
		// Overhead compares the traced and untraced CPU times of the same
		// inputs, run back to back.
		o.metrics["trace.overhead"] = ratio(median(tracedCPU), median(untracedCPU)) - 1
		o.tracer = tr
	} else {
		o.metrics = map[string]float64{
			"setup_s":         median(setups) * scale,
			"norm_jobs_per_s": ratio(1, median(timed)*scale),
		}
	}
	o.report("jobs %d, failed %d, distinct inputs %d", o.attempted, o.failed, inputs)
	o.report("reference %.6g s CPU (median of %d)", median(refs), len(refs))
	o.report("setup_s %.6g s normalised, %.6g s CPU, %.6g s wall (medians of %d)",
		median(setups)*scale, median(setups), median(setupsWall), len(setups))
	o.report("norm_jobs_per_s %.6g 1/s, %.6g 1/s CPU, %.6g 1/s wall (1 / median timed phase, of %d)",
		ratio(1, median(timed)*scale), ratio(1, median(timed)), ratio(1, median(timedWall)), len(timed))
	o.report("simcycles_per_s %.6g cycles/s (median of %d)", median(rates), len(rates))
	return o
}

// matchGolden compares a job's statistics with their stored value.
func matchGolden(stats any, want json.RawMessage) error {
	got, err := json.Marshal(stats)
	if err != nil {
		return fmt.Errorf("encode statistics: %w", err)
	}
	var g, w any
	if err := json.Unmarshal(got, &g); err != nil {
		return err
	}
	if err := json.Unmarshal(want, &w); err != nil {
		return fmt.Errorf("golden entry: %w", err)
	}
	if !reflect.DeepEqual(g, w) {
		return fmt.Errorf("statistics %s differ from the golden %s", got, want)
	}
	return nil
}
