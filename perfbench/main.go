// Command perfbench is the repository's end-to-end benchmark. One run
// executes one named workload for a given seed and time budget, checks
// every job's output, and prints a report followed by one JSON line
// with the jobs attempted and failed and the metrics: the end-to-end
// metrics untraced, the per-layer metrics with --trace 1. See
// README.md for the workloads, the metrics and how to read them.
package main

import (
	_ "embed"
	"encoding/json"

	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"syscall"
)

// metricDef names one metric and its unit. The lists below are the
// metric sets of BENCHMARK.json, in the same order.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"norm_jobs_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"sim.cycles", "cycles"},
	{"sim.steps", "count"},
	{"sim.warped_cycles", "cycles"},
	{"sim.evals", "count"},
	{"sim.steps_per_cycle", "steps/cycle"},
	{"sim.evals_per_step", "evals/step"},
	{"sim.ns_per_step", "ns"},
	{"sim.ns_per_eval", "ns"},
	{"noc.flit_hops", "count"},
	{"noc.packets_routed", "count"},
	{"noc.blocked_attempts", "count"},
	{"noc.wait_cycles", "cycles"},
	{"noc.block_ratio", "ratio"},
	{"noc.buffer_occupancy", "flits"},
	{"noc.ns_per_flit_hop", "ns"},
	{"traffic.build_s", "s"},
	{"traffic.warmup_s", "s"},
	{"traffic.measure_s", "s"},
	{"traffic.drain_s", "s"},
	{"traffic.collect_s", "s"},
	{"traffic.accept_ratio", "ratio"},
	{"traffic.packets", "count"},
	{"alloc.build_objects", "count"},
	{"alloc.build_mb", "MB"},
	{"alloc.measure_objects_per_kcycle", "objects/kcycle"},
	{"gc.cycles", "count"},
	{"gc.cpu_share", "ratio"},
	{"core.boot_s", "s"},
	{"core.load_s", "s"},
	{"core.process_s", "s"},
	{"core.load_warp_share", "ratio"},
	{"r8.instructions", "count"},
	{"r8.cpi", "cycles/instr"},
	{"r8.ns_per_instruction", "ns"},
	{"sweep.replay_s", "s"},
	{"sweep.submit_s", "s"},
	{"sweep.run_s_per_job", "s"},
	{"sweep.service_share", "ratio"},
	{"sweep.cache_hit_ratio", "ratio"},
	{"sweep.journal_bytes_per_job", "bytes"},
	{"sweep.retries", "count"},
	{"sweep.respawns", "count"},
	{"sweep.shed", "count"},
	{"sweep.http_non2xx", "count"},
	{"trace.overhead", "ratio"},
}

// defaultSeed is the seed whose exact simulated statistics golden.json
// stores.
const defaultSeed = 1

var workloads = []string{"mesh-lowload", "mesh-saturated", "system-edge", "sweep-batch"}

// jobLoops are the workloads that run one job at a time. inputs is how
// many distinct job inputs each cycles through: enough that a run's
// median spans several inputs, few enough that every input runs within
// one run.
var jobLoops = []struct {
	name   string
	fn     jobFunc
	inputs int
}{
	{"mesh-lowload", meshLowload.run, 8},
	{"mesh-saturated", meshSaturated.run, 4},
	{"system-edge", systemJob, 4},
}

// scratchDir holds everything a run writes: sweep journals and span
// files. It sits in the build directory the wrapper script uses.
const scratchDir = ".bench_build"

//go:embed golden.json
var goldenJSON []byte

// golden is the golden.json layout: per workload, the exact statistics
// of each job input at the default seed.
type golden struct {
	Seed      uint64                       `json:"seed"`
	Workloads map[string][]json.RawMessage `json:"workloads"`
}

// outcome is what one workload run produced.
type outcome struct {
	attempted, failed int
	failures          []string
	metrics           map[string]float64
	lines             []string
	tracer            *tracer
}

func (o *outcome) fail(msg string) {
	const keep = 10
	if len(o.failures) < keep {
		o.failures = append(o.failures, msg)
	}
}

func (o *outcome) report(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: mesh-lowload, mesh-saturated, system-edge or sweep-batch")
	seed := fs.Uint64("seed", defaultSeed, "workload seed; every job input derives from it")
	seconds := fs.Float64("seconds", 10, "how long to measure, in normalised CPU-seconds of the process (see README.md)")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	update := fs.String("update-golden", "", "rerun the default seed's job inputs and write their statistics to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *update != "" {
		if err := writeGolden(*update); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		fmt.Fprintln(stderr, "perfbench: golden.json:", err)
		return 1
	}
	var want []json.RawMessage
	if *seed == g.Seed {
		want = g.Workloads[*name]
	}
	o, err := runWorkload(*name, *seed, newBudget(*seconds), *trace == 1, want)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		path, err := o.tracer.write(filepath.Join(scratchDir, "traces"),
			fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		o.report("spans written to %s", path)
		names, share := selfByName(o.tracer.spans)
		for _, n := range names {
			o.report("self time %-20s %6.2f%% of root spans", n, 100*share[n])
		}
	} else {
		o.metrics["peak_rss_mb"] = peakRSSMB()
	}
	res := resultLine{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: %s produced no %s\n", *name, d.name)
			return 1
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	for _, f := range o.failures {
		fmt.Fprintln(stderr, "FAILED:", f)
	}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d\n", *name, *seed, *seconds, *trace)
	for _, l := range o.lines {
		fmt.Fprintln(stdout, "  "+l)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runWorkload dispatches one run. want holds the golden statistics of
// the job inputs when the seed is the default one.
func runWorkload(name string, seed uint64, b budget, traced bool, want []json.RawMessage) (outcome, error) {
	for _, w := range jobLoops {
		if w.name == name {
			return jobLoop(name, w.fn, w.inputs, seed, b, traced, want), nil
		}
	}
	if name == "sweep-batch" {
		return sweepBatch(seed, b, traced)
	}
	return outcome{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloads)
}

// writeGolden runs every job input of the default seed once and
// stores their statistics. Run it only for a change that means to
// alter the model; a speed-up must leave the file as it is.
func writeGolden(path string) error {
	g := golden{Seed: defaultSeed, Workloads: map[string][]json.RawMessage{}}
	for _, w := range jobLoops {
		for k := 0; k < w.inputs; k++ {
			r, err := w.fn(jobSeed(defaultSeed, k), nil, k)
			if err != nil {
				return fmt.Errorf("%s input %d: %w", w.name, k, err)
			}
			b, err := json.Marshal(r.stats)
			if err != nil {
				return err
			}
			g.Workloads[w.name] = append(g.Workloads[w.name], b)
		}
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// peakRSSMB reports the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
