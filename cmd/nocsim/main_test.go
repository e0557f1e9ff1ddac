package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"slices"
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
// one asked for end in an error, not a silent substitute. -vcd and
// -peak run fixed experiments, so every traffic flag set with them,
// even to its default, is an error naming it, and so is an invalid
// mesh or kernel or one the experiment cannot use, in an error of its
// own that names no traffic pattern.
func TestCLIRejects(t *testing.T) {
	vcd := filepath.Join(t.TempDir(), "q.vcd")
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
		{[]string{"-vcd", vcd, "-pattern", "transpose", "-hotspots", "1,1,0.3"}, "-vcd ignores -hotspots, -pattern"},
		{[]string{"-vcd", vcd, "-payload", "4", "-rate", "0.3", "-seed", "9"}, "-vcd ignores -payload, -rate, -seed"},
		{[]string{"-vcd", vcd, "-seed", "1"}, "-vcd ignores -seed"},
		{[]string{"-vcd", vcd, "-record", "r.trace"}, "-vcd ignores -record"},
		{[]string{"-vcd", vcd, "-routing", "zigzag"}, "routing"},
		{[]string{"-vcd", vcd, "-w", "1", "-h", "1"}, "-vcd needs a mesh of at least two nodes"},
		{[]string{"-vcd", vcd, "-flit", "12"}, "unsupported flit width 12"},
		{[]string{"-vcd", vcd, "-w", "17"}, "16x16 addressing limit"},
		{[]string{"-vcd", vcd, "-kernel", "fast"}, "unknown kernel"},
		{[]string{"-peak", "-w", "2", "-h", "4"}, "peak experiment needs a 3x3 mesh"},
		{[]string{"-peak", "-w", "1", "-h", "1"}, "peak experiment needs a 3x3 mesh"},
		{[]string{"-peak", "-depth", "2000"}, "buffer depth 2000"},
		{[]string{"-peak", "-routing", "zigzag"}, "routing"},
		{[]string{"-peak", "-cycles", "100", "-sweep", "0.1,0.2"}, "-peak ignores -cycles, -sweep"},
		{[]string{"-peak", "-mcunicast", "-burstlen", "4"}, "-peak ignores -burstlen, -mcunicast"},
		{[]string{"-vcd", vcd, "-peak"}, "-vcd and -peak"},
	} {
		err := run(tc.args, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one mentioning %q", tc.args, err, tc.want)
		} else if side := slices.Contains(tc.args, "-vcd") || slices.Contains(tc.args, "-peak"); side && strings.Contains(err.Error(), `pattern "`) {
			t.Errorf("%v: error %v names a traffic pattern", tc.args, err)
		}
	}
	if _, err := os.Stat(vcd); !os.IsNotExist(err) {
		t.Errorf("a rejected -vcd run left %s behind (stat: %v)", vcd, err)
	}
}

// TestVCDUnderEveryKernel: -vcd honours -kernel, and the default
// kernel and both oracles write byte-identical waveform files.
func TestVCDUnderEveryKernel(t *testing.T) {
	dir := t.TempDir()
	var want []byte
	for _, k := range []string{"", "nowarp", "dense"} {
		path := filepath.Join(dir, "trace-"+k+".vcd")
		if err := run([]string{"-w", "4", "-h", "4", "-vcd", path, "-kernel", k}, io.Discard); err != nil {
			t.Fatalf("kernel %q: %v", k, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			if !bytes.Contains(got, []byte("$var")) || !bytes.Contains(got, []byte("\n#")) {
				t.Fatalf("kernel %q: no signals or timesteps in\n%s", k, got)
			}
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
			for i := range min(len(g), len(w)) {
				if g[i] != w[i] {
					t.Fatalf("kernel %q: VCD line %d is %q, the default kernel's %q", k, i+1, g[i], w[i])
				}
			}
			t.Fatalf("kernel %q: VCD has %d lines, the default kernel's %d", k, len(g), len(w))
		}
	}
	path := filepath.Join(dir, "turbo.vcd")
	if err := run([]string{"-vcd", path, "-kernel", "turbo"}, io.Discard); err == nil || !strings.Contains(err.Error(), "unknown kernel") {
		t.Errorf("-vcd under an unknown kernel: error %v, want one mentioning %q", err, "unknown kernel")
	}
}
