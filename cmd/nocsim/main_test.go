package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/sweep"
)

// TestCLIMatchesService: nocsim and the sweep service share one run
// path. The jobs the CLI builds from its flags, submitted to an
// in-process sweep.Service, come back with exactly the Results the CLI
// reports, and the CLI prints its table from those Results.
func TestCLIMatchesService(t *testing.T) {
	args := []string{"-w", "4", "-h", "4", "-pattern", "hotspot", "-payload", "4",
		"-sweep", "0.05,0.12", "-cycles", "1500", "-seed", "3", "-kernel", "nowarp"}
	o, err := parse(args)
	if err != nil {
		t.Fatal(err)
	}
	var table bytes.Buffer
	results, err := o.runTraffic(&table)
	if err != nil {
		t.Fatal(err)
	}
	var printed bytes.Buffer
	if err := run(args, &printed); err != nil {
		t.Fatal(err)
	}
	if printed.String() != table.String() {
		t.Fatalf("CLI printed\n%s\nwant\n%s", printed.String(), table.String())
	}

	svc, err := sweep.NewService(sweep.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	defer svc.Drain(ctx)
	specs := make([]sweep.JobSpec, len(o.jobs))
	for i, j := range o.jobs {
		specs[i] = sweep.JobSpec{TrafficJob: j}
	}
	snap, err := svc.Submit("", specs)
	if err != nil {
		t.Fatal(err)
	}
	final, err := svc.WaitBatch(ctx, snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(final.Jobs) != len(results) {
		t.Fatalf("service returned %d records for %d CLI results", len(final.Jobs), len(results))
	}
	for i, rec := range final.Jobs {
		if rec.Status != sweep.StatusDone || rec.Result == nil {
			t.Fatalf("job %d: %+v", i, rec)
		}
		if *rec.Result != results[i] {
			t.Errorf("rate %v: service result\n  %+v\nCLI result\n  %+v", o.jobs[i].Rate, *rec.Result, results[i])
		}
		if results[i].MeasuredPackets == 0 {
			t.Errorf("rate %v: no packets measured; the comparison is vacuous", o.jobs[i].Rate)
		}
	}
}

// TestCLIRejects: flags that would run a different experiment than the
// one asked for end in an error, not a silent substitute.
func TestCLIRejects(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-pattern", "uniform", "-mcgroup", "0,0;3,3"}, "only multicast"},
		{[]string{"-pattern", "transpose", "-hotspots", "1,1,0.3"}, "only hotspot"},
		{[]string{"-mcunicast"}, "only multicast"},
		{[]string{"-kernel", "parallel2"}, "unknown kernel"},
		{[]string{"-cycles", "3"}, "-cycles at least 4"},
		{[]string{"-w", "0"}, "must be positive"},
		{[]string{"-routing", "zigzag"}, "routing"},
	} {
		err := run(tc.args, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one mentioning %q", tc.args, err, tc.want)
		}
	}
}
