// Command perfgate is the repository's performance gate: it runs the
// benchmark BENCHMARK.json declares in two checkouts and fails when
// HEAD is reliably worse than BASE.
//
//	perfgate BASE HEAD
//
// HEAD's BENCHMARK.json names the command, the workloads and the
// end-to-end metrics with their bounds. The command runs in a
// checkout's root with "--workload W --seed S --seconds 3" appended and
// must print perfbench's result line last: correct, failed and the
// metrics by name.
//
// HEAD first runs every workload at seed 1, the seed the benchmark
// checks against its golden statistics, which BASE would fail after an
// intended model change. Then each workload runs 10 pairs, BASE and
// HEAD at seeds 2 to 11, the side that runs first alternating. Each
// round runs one pair of every workload, so a slow spell of the machine
// hits a few pairs of each workload rather than all pairs of one.
//
// The gate fails at once on a run that exits non-zero, reports correct
// false or failed jobs, or lacks an end-to-end metric. After the pairs
// it fails each workload and metric where HEAD's median is worse than
// BASE's by more than the metric's bound and HEAD is worse in at least
// 9 of the 10 pairs. It prints the medians, quartiles and pairs HEAD
// lost of every workload and metric, and exits 1 when the gate fails
// and 2 on a usage or set-up error.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"text/tabwriter"
)

const (
	pairs      = 10  // BASE/HEAD pairs per workload
	firstSeed  = 2   // the pairs use seeds firstSeed to firstSeed+pairs-1
	goldenSeed = 1   // the seed the benchmark checks exactly; HEAD only
	seconds    = "3" // the budget of every run
	mustLose   = 9   // pairs HEAD must lose for a metric to fail
)

// spec is the part of BENCHMARK.json the gate reads.
type spec struct {
	Command   []string
	Workloads []struct{ Name string }
	EndToEnd  []metric `json:"end_to_end"`
}

type metric struct {
	Name   string
	Better string  // "higher" or "lower"
	Bound  float64 // share of BASE's median HEAD may lose
}

// worse reports whether h is worse than b by more than share of b.
func (m metric) worse(h, b, share float64) bool {
	if m.Better == "higher" {
		return h < b*(1-share)
	}
	return h > b*(1+share)
}

// sides names the two checkouts by their index in the arguments.
var sides = [2]string{"base", "head"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfgate BASE HEAD")
		return 2
	}
	s, err := readSpec(filepath.Join(args[1], "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(stderr, "perfgate:", err)
		return 2
	}
	// samples[{workload, side, metric}] holds one value per pair.
	samples := map[[3]int][]float64{}
	bench := func(w, side, seed int) bool {
		vs, err := s.bench(args[side], sides[side], s.Workloads[w].Name, seed, stdout, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "perfgate: FAIL", err)
			return false
		}
		if seed != goldenSeed {
			for m, v := range vs {
				k := [3]int{w, side, m}
				samples[k] = append(samples[k], v)
			}
		}
		return true
	}
	for w := range s.Workloads {
		if !bench(w, 1, goldenSeed) {
			return 1
		}
	}
	for p := range pairs {
		for w := range s.Workloads {
			for i := range 2 {
				if !bench(w, (p+i)%2, firstSeed+p) {
					return 1
				}
			}
		}
	}

	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3]\thead median [q1, q3]\tchange\thead lost\tbound\tverdict")
	var fails []string
	for w, wl := range s.Workloads {
		for m, mt := range s.EndToEnd {
			b, h := samples[[3]int{w, 0, m}], samples[[3]int{w, 1, m}]
			lost := 0
			for i := range b {
				if mt.worse(h[i], b[i], 0) {
					lost++
				}
			}
			bq, hq := quartiles(b), quartiles(h)
			change := fmt.Sprintf("%+.1f%%", 100*(hq[1]-bq[1])/bq[1])
			verdict := "ok"
			if mt.worse(hq[1], bq[1], mt.Bound) && lost >= mustLose {
				verdict = "FAIL"
				fails = append(fails, fmt.Sprintf("%s %s: head median %.4g against base %.4g (%s, %s is better), past the %.0f%% bound, and head worse in %d/%d pairs",
					wl.Name, mt.Name, hq[1], bq[1], change, mt.Better, 100*mt.Bound, lost, pairs))
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%s\t%d/%d\t%.0f%%\t%s\n",
				wl.Name, mt.Name, bq[1], bq[0], bq[2], hq[1], hq[0], hq[2], change, lost, pairs, 100*mt.Bound, verdict)
		}
	}
	tw.Flush()
	for _, f := range fails {
		fmt.Fprintln(stdout, "perfgate: FAIL", f)
	}
	if len(fails) > 0 {
		return 1
	}
	fmt.Fprintf(stdout, "perfgate: pass: no end-to-end metric is past its bound in the median and worse in %d of %d pairs\n", mustLose, pairs)
	return 0
}

func readSpec(path string) (spec, error) {
	var s spec
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, &s)
	}
	if err != nil {
		return s, err
	}
	for _, m := range s.EndToEnd {
		if m.Better != "higher" && m.Better != "lower" {
			return s, fmt.Errorf("%s: metric %s: better is %q, not higher or lower", path, m.Name, m.Better)
		}
	}
	if len(s.Command) == 0 || len(s.Workloads) == 0 || len(s.EndToEnd) == 0 {
		return s, fmt.Errorf("%s: needs a command, workloads and end-to-end metrics", path)
	}
	return s, nil
}

// bench runs the benchmark once in dir, echoes its result line and
// returns the end-to-end metrics in spec order. The report lines above
// the result line are dropped; standard error passes through.
func (s spec) bench(dir, side, workload string, seed int, stdout, stderr io.Writer) ([]float64, error) {
	what := fmt.Sprintf("%s %s seed %d", side, workload, seed)
	args := append(slices.Clone(s.Command[1:]), "--workload", workload, "--seed", strconv.Itoa(seed), "--seconds", seconds)
	cmd := exec.Command(s.Command[0], args...)
	cmd.Dir = dir
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	out = bytes.TrimSpace(out)
	line := out[bytes.LastIndexByte(out, '\n')+1:]
	fmt.Fprintf(stdout, "%s: %s\n", what, line)
	var r struct {
		Correct bool
		Failed  int
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal(line, &r); err != nil {
		return nil, fmt.Errorf("%s: no result line: %w", what, err)
	}
	if !r.Correct || r.Failed > 0 {
		return nil, fmt.Errorf("%s: correct %v with %d failed jobs", what, r.Correct, r.Failed)
	}
	vs := make([]float64, len(s.EndToEnd))
	for i, m := range s.EndToEnd {
		v, ok := r.Metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("%s: no %s", what, m.Name)
		}
		vs[i] = v.Value
	}
	return vs, nil
}

// quartiles returns the first quartile, the median and the third
// quartile of xs, interpolating between the nearest two samples.
func quartiles(xs []float64) [3]float64 {
	s := slices.Sorted(slices.Values(xs))
	var q [3]float64
	for i, p := range []float64{0.25, 0.5, 0.75} {
		pos := p * float64(len(s)-1)
		lo := int(pos)
		q[i] = s[lo] + (s[min(lo+1, len(s)-1)]-s[lo])*(pos-float64(lo))
	}
	return q
}
