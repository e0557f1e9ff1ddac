package traffic

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/noc"
)

func TestConfigValidateRejectsBadFields(t *testing.T) {
	ncfg := noc.Defaults(4, 4)
	good := Config{Rate: 0.05, PayloadFlits: 8, Measure: 100}
	if err := good.Validate(ncfg); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
		ncfg noc.Config
	}{
		{"negative rate", func(c *Config) { c.Rate = -0.1 }, ncfg},
		{"NaN rate", func(c *Config) { c.Rate = math.NaN() }, ncfg},
		{"rate above 1", func(c *Config) { c.Rate = 1.5 }, ncfg},
		{"zero payload", func(c *Config) { c.PayloadFlits = 0 }, ncfg},
		{"oversized payload", func(c *Config) { c.PayloadFlits = 1 << 20 }, ncfg},
		{"negative warmup", func(c *Config) { c.Warmup = -1 }, ncfg},
		{"zero measure", func(c *Config) { c.Measure = 0 }, ncfg},
		{"negative queue cap", func(c *Config) { c.QueueCap = -1 }, ncfg},
		{"unknown kernel", func(c *Config) { c.Kernel = "turbo" }, ncfg},
		{"removed sharded kernel", func(c *Config) { c.Kernel = "sharded2" }, ncfg},
		{"removed parallel kernel", func(c *Config) { c.Kernel = "parallel4" }, ncfg},
		{"hotspots on uniform", func(c *Config) {
			c.Spec = PatternSpec{Name: "uniform", Hotspots: []HotspotSpec{{X: 1, Y: 1, Weight: 0.2}}}
		}, ncfg},
		{"hotspots on the empty pattern", func(c *Config) {
			c.Spec = PatternSpec{Hotspots: []HotspotSpec{{X: 1, Y: 1, Weight: 0.2}}}
		}, ncfg},
		{"group on transpose", func(c *Config) {
			c.Spec = PatternSpec{Name: "transpose", Group: []noc.Addr{{X: 0, Y: 0}, {X: 3, Y: 3}}}
		}, ncfg},
		{"unicast oracle on bursty", func(c *Config) {
			c.Spec = PatternSpec{Name: "bursty", MulticastUnicast: true}
		}, ncfg},
		{"trace on hotspot", func(c *Config) {
			c.Spec = PatternSpec{Name: "hotspot", Hotspots: []HotspotSpec{{X: 1, Y: 1, Weight: 0.2}},
				Trace: []TraceEntry{{Cycle: 1, Dst: noc.Addr{X: 1, Y: 1}, Payload: 1}}}
		}, ncfg},
		{"one-node mesh", func(c *Config) {}, noc.Defaults(1, 1)},
		{"zero mesh", func(c *Config) {}, noc.Config{}},
		{"zero-width mesh", func(c *Config) {}, noc.Defaults(0, 4)},
	}
	for _, tc := range cases {
		cfg := good
		tc.mut(&cfg)
		if err := cfg.Validate(tc.ncfg); err == nil {
			t.Errorf("%s: Validate accepted the config", tc.name)
		}
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	// Run surfaces validation as an error, never a panic — the property
	// the sweep service's 400 path relies on.
	if _, err := Run(noc.Defaults(0, 0), Config{Rate: 0.1, PayloadFlits: 4, Measure: 10}); err == nil {
		t.Fatal("Run accepted a zero mesh")
	}
	if _, err := Run(noc.Defaults(4, 4), Config{Rate: -1, PayloadFlits: 4, Measure: 10}); err == nil {
		t.Fatal("Run accepted a negative rate")
	}
	if _, err := Run(noc.Defaults(4, 4), Config{Rate: 0.1, PayloadFlits: 4, Measure: 10, Kernel: "parallel2"}); err == nil {
		t.Fatal("Run accepted a removed kernel")
	}
}

func TestRunWallClockCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: the run must abort almost immediately
	_, err := Run(noc.Defaults(8, 8), Config{
		Rate: 0.05, PayloadFlits: 8, Seed: 1,
		Warmup: 1000, Measure: 50_000_000, Drain: 1000,
		Ctx: ctx,
	})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
}

func TestRunCycleBudget(t *testing.T) {
	base := Config{
		Rate: 0.05, PayloadFlits: 8, Seed: 1,
		Warmup: 500, Measure: 3000, Drain: 10_000,
	}
	over := base
	over.MaxCycles = 1000 // inside the measure phase
	if _, err := Run(noc.Defaults(8, 8), over); !errors.Is(err, ErrCycleBudget) {
		t.Fatalf("Run = %v, want ErrCycleBudget", err)
	}
	// A generous budget changes nothing: the hook never fires and the
	// result is bit-identical to an unbudgeted run.
	roomy := base
	roomy.MaxCycles = 1_000_000
	want, err := Run(noc.Defaults(8, 8), base)
	if err != nil {
		t.Fatalf("unbudgeted Run: %v", err)
	}
	got, err := Run(noc.Defaults(8, 8), roomy)
	if err != nil {
		t.Fatalf("budgeted Run: %v", err)
	}
	if got != want {
		t.Fatalf("budgeted result diverged:\n got %+v\nwant %+v", got, want)
	}
}
