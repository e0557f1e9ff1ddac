package traffic

import (
	"sync"
	"testing"

	"repro/internal/noc"
)

// TestConcurrentRunsMatchSerial pins the isolation property the sweep
// service builds on: any number of simulations, each on its own
// sim.Clock, can run concurrently in one process and produce results
// bit-identical to running them one at a time. Under -race this also
// proves the kernel keeps no shared mutable state between clocks.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations; skipped in -short")
	}
	cfgs := make([]Config, 6)
	for i := range cfgs {
		cfgs[i] = Config{
			Rate: 0.02 + 0.01*float64(i), PayloadFlits: 4, Seed: uint64(i + 1),
			Warmup: 100, Measure: 500, Drain: 5000,
		}
	}
	cfgs[3].Kernel = "dense" // one oracle-kernel run among the default ones
	ncfg := noc.Defaults(4, 4)

	serial := make([]Result, len(cfgs))
	for i, cfg := range cfgs {
		res, err := Run(ncfg, cfg)
		if err != nil {
			t.Fatalf("serial run %d: %v", i, err)
		}
		serial[i] = res
	}

	concurrent := make([]Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[i], errs[i] = Run(ncfg, cfg)
		}()
	}
	wg.Wait()
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		if concurrent[i] != serial[i] {
			t.Errorf("run %d diverged under concurrency:\n got %+v\nwant %+v",
				i, concurrent[i], serial[i])
		}
	}
}
