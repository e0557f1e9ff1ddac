package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/traffic"
)

func TestTrafficJobCanonicalIsStable(t *testing.T) {
	// Canonicalization is idempotent and erases the kernel, so jobs
	// differing only in how they are scheduled share an identity.
	ref := TrafficJob{Rate: 0.05, Seed: 3}.Canonical()
	if !reflect.DeepEqual(ref, ref.Canonical()) {
		t.Fatalf("Canonical not idempotent: %+v vs %+v", ref, ref.Canonical())
	}
	for _, k := range []sim.Kernel{"nowarp", "dense"} {
		if c := (TrafficJob{Rate: 0.05, Seed: 3, Kernel: k}).Canonical(); !reflect.DeepEqual(c, ref) {
			t.Fatalf("kernel %s canonicalizes differently:\n%+v\n%+v", k, c, ref)
		}
	}
	// The burst fields default for bursty jobs, and Canonical stays
	// idempotent through the rewrite.
	bursty := (TrafficJob{Rate: 0.05, Pattern: "bursty"}).Canonical()
	if bursty.BurstLen != 8 || bursty.BurstPeak != 0.5 {
		t.Fatalf("bursty job missing burst defaults: %+v", bursty)
	}
	if !reflect.DeepEqual(bursty, bursty.Canonical()) {
		t.Fatalf("Canonical not idempotent on bursty: %+v vs %+v", bursty, bursty.Canonical())
	}
}

func TestTrafficJobSurvivesJSONRoundTrip(t *testing.T) {
	j := TrafficJob{
		Width: 6, Height: 4, Routing: "yx", Pattern: "hotspot",
		Rate: 0.08, PayloadFlits: 4, Seed: 42, Measure: 1500, Kernel: "nowarp",
		Hotspots: []traffic.HotspotSpec{{X: 2, Y: 1, Weight: 0.3}},
	}
	bs, err := json.Marshal(j)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back TrafficJob
	if err := json.Unmarshal(bs, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(back, j) {
		t.Fatalf("round trip changed the job:\n got %+v\nwant %+v", back, j)
	}
	// The pattern-library fields survive the round trip too (as data:
	// this combination would not validate).
	rich := TrafficJob{
		Rate: 0.05, Pattern: "multicast",
		Multicast:        []noc.Addr{{X: 1, Y: 2}, {X: 3, Y: 0}},
		MulticastUnicast: true,
		Hotspots:         []traffic.HotspotSpec{{X: 4, Y: 4, Weight: 0.2}},
		BurstLen:         6, BurstPeak: 0.4,
		Trace: []traffic.TraceEntry{{Cycle: 7, Src: noc.Addr{X: 0, Y: 0}, Dst: noc.Addr{X: 1, Y: 1}, Payload: 3}},
	}
	bs, err = json.Marshal(rich)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var richBack TrafficJob
	if err := json.Unmarshal(bs, &richBack); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(richBack, rich) {
		t.Fatalf("round trip changed the job:\n got %+v\nwant %+v", richBack, rich)
	}
}

func TestTrafficJobValidate(t *testing.T) {
	if err := (TrafficJob{Rate: 0.05, Seed: 1}).Validate(); err != nil {
		t.Fatalf("default job rejected: %v", err)
	}
	bad := []TrafficJob{
		{Rate: -0.1},
		{Rate: 0.05, Width: -3},
		{Rate: 0.05, Width: 40},
		{Rate: 0.05, Routing: "zigzag"},
		{Rate: 0.05, Pattern: "nope"},
		{Rate: 0.05, Pattern: "hotspot"},
		{Rate: 0.05, Pattern: "hotspot", Hotspots: []traffic.HotspotSpec{{X: 99, Weight: 0.3}}},
		{Rate: 0.05, Pattern: "hotspot", Hotspots: []traffic.HotspotSpec{{X: 1, Y: 1, Weight: 2}}},
		{Rate: 0.05, Pattern: "hotspot", Hotspots: []traffic.HotspotSpec{
			{X: 1, Y: 1, Weight: 0.7}, {X: 2, Y: 2, Weight: 0.7}}},
		{Rate: 0.05, Pattern: "bitrev", Width: 6, Height: 6},
		{Rate: 0.05, Pattern: "bursty", BurstPeak: 0.05},
		{Rate: 0.05, Pattern: "bursty", BurstLen: 0.2},
		{Rate: 0.05, Pattern: "trace"},
		{Rate: 0.05, Pattern: "trace", Trace: []traffic.TraceEntry{
			{Cycle: 1, Src: noc.Addr{X: 0, Y: 0}, Dst: noc.Addr{X: 20, Y: 0}, Payload: 1}}},
		{Rate: 0.05, Pattern: "multicast"},
		{Rate: 0.05, Pattern: "multicast", Multicast: []noc.Addr{{X: 1, Y: 1}, {X: 1, Y: 1}}},
		{Rate: 0.05, Measure: -5},
		{Rate: 0.05, Kernel: "sharded2"},
		{Rate: 0.05, Kernel: "parallel4"},
		{Rate: 0.05, Kernel: "fast"},
		// Parameters the pattern does not use: rejected, not ignored.
		{Rate: 0.05, Hotspots: []traffic.HotspotSpec{{X: 1, Y: 1, Weight: 0.3}}},
		{Rate: 0.05, Pattern: "bitcomp", Hotspots: []traffic.HotspotSpec{{X: 1, Y: 1, Weight: 0.3}}},
		{Rate: 0.05, Multicast: []noc.Addr{{X: 1, Y: 1}, {X: 2, Y: 2}}},
		{Rate: 0.05, Pattern: "transpose", MulticastUnicast: true},
		{Rate: 0.05, Pattern: "bursty", Trace: []traffic.TraceEntry{
			{Cycle: 1, Src: noc.Addr{X: 0, Y: 0}, Dst: noc.Addr{X: 1, Y: 1}, Payload: 1}}},
		{Rate: 0.05, Pattern: "trace", Trace: []traffic.TraceEntry{
			{Cycle: 1, Src: noc.Addr{X: 0, Y: 0}, Dst: noc.Addr{X: 1, Y: 1}, Payload: 1}},
			Hotspots: []traffic.HotspotSpec{{X: 1, Y: 1, Weight: 0.3}}},
		{Rate: 0.05, FlitBits: 13},
		{Rate: 0.05, Width: 1, Height: 1}, // uniform has no destination
	}
	for i, j := range bad {
		if err := j.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, j)
		}
	}
	good := []TrafficJob{
		{Rate: 0.05, Pattern: "bitrev"},
		{Rate: 0.05, Pattern: "bursty", Kernel: "dense"},
		{Rate: 0.05, Pattern: "transpose", BurstLen: 4, BurstPeak: 0.4},
		{Rate: 0.05, Pattern: "multicast", Multicast: []noc.Addr{{X: 1, Y: 1}, {X: 7, Y: 7}}},
		{Rate: 0.05, Pattern: "trace", Trace: []traffic.TraceEntry{
			{Cycle: 1, Src: noc.Addr{X: 0, Y: 0}, Dst: noc.Addr{X: 1, Y: 1}, Payload: 1}}},
	}
	for i, j := range good {
		if err := j.Validate(); err != nil {
			t.Errorf("good case %d rejected: %v", i, err)
		}
	}
}

// TestTrafficJobPatternLibraryRuns: each pattern name runs end to end
// through the job adapter and measures traffic.
func TestTrafficJobPatternLibraryRuns(t *testing.T) {
	jobs := []TrafficJob{
		{Width: 4, Height: 4, Rate: 0.04, PayloadFlits: 4, Seed: 3,
			Warmup: 100, Measure: 800, Drain: 10000, Pattern: "bitrev"},
		{Width: 4, Height: 4, Rate: 0.04, PayloadFlits: 4, Seed: 3,
			Warmup: 100, Measure: 800, Drain: 10000, Pattern: "bursty"},
		{Width: 4, Height: 4, Rate: 0.02, PayloadFlits: 4, Seed: 3,
			Warmup: 100, Measure: 800, Drain: 10000, Pattern: "multicast",
			Multicast: []noc.Addr{{X: 0, Y: 3}, {X: 3, Y: 0}}},
		{Width: 4, Height: 4, Rate: 0.04, PayloadFlits: 4, Seed: 3,
			Warmup: 100, Measure: 800, Drain: 10000, Pattern: "hotspot",
			Hotspots: []traffic.HotspotSpec{{X: 3, Y: 3, Weight: 0.25}, {X: 0, Y: 0, Weight: 0.25}}},
	}
	for _, j := range jobs {
		res, err := j.Run(context.Background(), 0)
		if err != nil {
			t.Fatalf("%s: %v", j.Pattern, err)
		}
		if res.MeasuredPackets == 0 {
			t.Errorf("%s: job measured no packets", j.Pattern)
		}
	}
}

func TestTrafficJobRunMatchesDirectTrafficRun(t *testing.T) {
	j := TrafficJob{
		Width: 4, Height: 4, Rate: 0.05, PayloadFlits: 4, Seed: 9,
		Warmup: 200, Measure: 1000, Drain: 5000,
	}
	got, err := j.Run(context.Background(), 0)
	if err != nil {
		t.Fatalf("job run: %v", err)
	}
	ncfg, _, err := j.Configs()
	if err != nil {
		t.Fatalf("Configs: %v", err)
	}
	want, err := traffic.Run(ncfg, traffic.Config{
		Rate: 0.05, PayloadFlits: 4, Seed: 9,
		Warmup: 200, Measure: 1000, Drain: 5000,
	})
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	if got != want {
		t.Fatalf("adapter diverged from direct run:\n got %+v\nwant %+v", got, want)
	}
}

func TestTrafficJobRunHonoursBudgets(t *testing.T) {
	j := TrafficJob{Width: 8, Height: 8, Rate: 0.05, Seed: 2, Measure: 1_000_000}
	if _, err := j.Run(context.Background(), 3000); !errors.Is(err, traffic.ErrCycleBudget) {
		t.Fatalf("cycle budget: Run = %v, want ErrCycleBudget", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := j.Run(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("wall clock: Run = %v, want context.Canceled", err)
	}
}
