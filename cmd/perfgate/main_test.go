package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The tests gate two checkouts whose benchmark is a stub: stub.sh,
// which logs each run's checkout, workload and seed to runs.log beside
// the checkouts, prints the output stored for that workload and seed
// and exits with the stored status.
const stubSh = `while [ $# -gt 0 ]; do
  case $1 in --workload) w=$2 ;; --seed) s=$2 ;; esac
  shift 2
done
echo "$(basename "$PWD") $w $s" >> ../runs.log
echo "workload $w seed $s"
cat "runs/$w-$s.out"
exit "$(cat "runs/$w-$s.exit")"
`

// stubRun is what the stub does for one workload and seed.
type stubRun struct {
	Exit    int
	Correct bool
	Failed  int
	Metrics map[string]float64
}

// output is the stub's result line for r, as perfbench prints it.
func (r stubRun) output(t *testing.T) []byte {
	metrics := map[string]map[string]float64{}
	for name, v := range r.Metrics {
		metrics[name] = map[string]float64{"value": v}
	}
	b, err := json.Marshal(map[string]any{"correct": r.Correct, "attempted": 4, "failed": r.Failed, "metrics": metrics})
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

var (
	workloads = []string{"w1", "w2"}
	metrics   = []string{"setup_s", "norm_jobs_per_s", "peak_rss_mb"}
)

const benchmarkJSON = `{
  "command": ["sh", "stub.sh"],
  "workloads": [{"name": "w1"}, {"name": "w2"}],
  "end_to_end": [
    {"name": "setup_s", "better": "lower", "bound": 0.25},
    {"name": "norm_jobs_per_s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.25}
  ]
}`

// healthy is a correct run whose metrics jitter by up to 4% with the
// seed. Shifting the jitter by a different amount on each side makes
// HEAD win some pairs and lose others.
func healthy(seed, shift int) stubRun {
	j := 1 + 0.02*float64((seed+shift)%5-2)
	return stubRun{Correct: true, Metrics: map[string]float64{
		"setup_s": 0.001 * j, "norm_jobs_per_s": 4 / j, "peak_rss_mb": 13 * j}}
}

func baseRun(_ string, seed int) stubRun { return healthy(seed, 0) }
func headRun(_ string, seed int) stubRun { return healthy(seed, 2) }

// gate runs the gate over a base and a head checkout whose stubs do
// what the two functions say, and returns its exit code, its output
// and the runs in the order they happened.
func gate(t *testing.T, base, head func(workload string, seed int) stubRun) (int, string, []string) {
	t.Helper()
	dir := t.TempDir()
	write := func(path string, b []byte) {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for side, runs := range map[string]func(string, int) stubRun{"base": base, "head": head} {
		d := filepath.Join(dir, side)
		if err := os.MkdirAll(filepath.Join(d, "runs"), 0o755); err != nil {
			t.Fatal(err)
		}
		write(filepath.Join(d, "stub.sh"), []byte(stubSh))
		write(filepath.Join(d, "BENCHMARK.json"), []byte(benchmarkJSON))
		for _, w := range workloads {
			for seed := goldenSeed; seed < firstSeed+pairs; seed++ {
				r := runs(w, seed)
				name := filepath.Join(d, "runs", fmt.Sprintf("%s-%d", w, seed))
				write(name+".out", r.output(t))
				write(name+".exit", []byte(strconv.Itoa(r.Exit)))
			}
		}
	}
	var out bytes.Buffer
	code := run([]string{filepath.Join(dir, "base"), filepath.Join(dir, "head")}, &out, &out)
	log, err := os.ReadFile(filepath.Join(dir, "runs.log"))
	if err != nil {
		t.Fatal(err)
	}
	return code, out.String(), strings.Split(strings.TrimSpace(string(log)), "\n")
}

// verdict returns the verdict column of a workload's metric row.
func verdict(t *testing.T, out, workload, metric string) string {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + workload + ` +` + metric + ` .* (ok|FAIL)$`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no %s %s row in:\n%s", workload, metric, out)
	}
	return m[1]
}

func TestGatePasses(t *testing.T) {
	// BASE never runs the golden seed, so failing it there is harmless.
	base := func(w string, seed int) stubRun {
		r := baseRun(w, seed)
		r.Correct = seed != goldenSeed
		return r
	}
	code, out, log := gate(t, base, headRun)
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, out)
	}
	for _, w := range workloads {
		for _, m := range metrics {
			if v := verdict(t, out, w, m); v != "ok" {
				t.Errorf("%s %s: %s, want ok", w, m, v)
			}
		}
	}
	want := []string{"head w1 1", "head w2 1"}
	for p := range pairs {
		seed := firstSeed + p
		sides := []string{"base", "head"}
		if p%2 == 1 {
			sides = []string{"head", "base"}
		}
		for _, w := range workloads {
			for _, s := range sides {
				want = append(want, fmt.Sprintf("%s %s %d", s, w, seed))
			}
		}
	}
	if !slices.Equal(log, want) {
		t.Errorf("runs:\n%s\nwant:\n%s", strings.Join(log, "\n"), strings.Join(want, "\n"))
	}
}

// scaled returns HEAD's healthy run with one workload's metric
// multiplied by f(seed).
func scaled(workload, metric string, f func(seed int) float64) func(string, int) stubRun {
	return func(w string, seed int) stubRun {
		r := headRun(w, seed)
		if w == workload {
			r.Metrics[metric] *= f(seed)
		}
		return r
	}
}

func by(x float64) func(int) float64 { return func(int) float64 { return x } }

// TestGateVerdicts scales one of HEAD's metrics. norm_jobs_per_s is
// better higher, setup_s and peak_rss_mb lower.
func TestGateVerdicts(t *testing.T) {
	for _, tc := range []struct {
		name         string
		head         func(string, int) stubRun
		fail, metric string // the failing row, if any
	}{
		{"slower past the bound in every pair",
			scaled("w2", "norm_jobs_per_s", by(0.6)), "w2", "norm_jobs_per_s"},
		{"slower within the bound in every pair",
			scaled("w2", "norm_jobs_per_s", by(0.85)), "", ""},
		{"slower past the bound in 8 of 10 pairs",
			scaled("w1", "norm_jobs_per_s", func(seed int) float64 {
				if seed < firstSeed+8 {
					return 0.6
				}
				return 1.2
			}), "", ""},
		{"faster", scaled("w1", "norm_jobs_per_s", by(1.5)), "", ""},
		{"more memory",
			scaled("w1", "peak_rss_mb", by(1.4)), "w1", "peak_rss_mb"},
		{"slower set-up",
			scaled("w2", "setup_s", by(1.4)), "w2", "setup_s"},
		{"less memory",
			scaled("w1", "peak_rss_mb", by(0.6)), "", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, out, _ := gate(t, baseRun, tc.head)
			if want := map[bool]int{false: 0, true: 1}[tc.fail != ""]; code != want {
				t.Fatalf("exit %d, want %d:\n%s", code, want, out)
			}
			for _, w := range workloads {
				for _, m := range metrics {
					want := "ok"
					if w == tc.fail && m == tc.metric {
						want = "FAIL"
					}
					if v := verdict(t, out, w, m); v != want {
						t.Errorf("%s %s: %s, want %s:\n%s", w, m, v, want, out)
					}
				}
			}
			if tc.fail != "" && !strings.Contains(out, "perfgate: FAIL "+tc.fail+" "+tc.metric+": ") {
				t.Errorf("no failure line naming %s %s:\n%s", tc.fail, tc.metric, out)
			}
		})
	}
}

func TestGateFailsBadRun(t *testing.T) {
	// breakAt returns side's healthy run, broken by f at one workload
	// and seed.
	breakAt := func(side func(string, int) stubRun, workload string, seed int, f func(*stubRun)) func(string, int) stubRun {
		return func(w string, s int) stubRun {
			r := side(w, s)
			if w == workload && s == seed {
				f(&r)
			}
			return r
		}
	}
	for _, tc := range []struct {
		name       string
		base, head func(string, int) stubRun
		want, last string // the failure line and the bad run's log entry
	}{
		{"base exits non-zero",
			breakAt(baseRun, "w2", 5, func(r *stubRun) { r.Exit = 3 }), headRun,
			"perfgate: FAIL base w2 seed 5: exit status 3", "base w2 5"},
		{"head reports correct false",
			baseRun, breakAt(headRun, "w1", 7, func(r *stubRun) { r.Correct = false }),
			"perfgate: FAIL head w1 seed 7: correct false with 0 failed jobs", "head w1 7"},
		{"head fails jobs at the golden seed",
			baseRun, breakAt(headRun, "w2", goldenSeed, func(r *stubRun) { r.Failed = 2 }),
			"perfgate: FAIL head w2 seed 1: correct true with 2 failed jobs", "head w2 1"},
		{"head lacks a metric",
			baseRun, breakAt(headRun, "w1", 11, func(r *stubRun) { delete(r.Metrics, "peak_rss_mb") }),
			"perfgate: FAIL head w1 seed 11: no peak_rss_mb", "head w1 11"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, out, log := gate(t, tc.base, tc.head)
			if code != 1 {
				t.Fatalf("exit %d, want 1:\n%s", code, out)
			}
			if !strings.Contains(out, tc.want) {
				t.Errorf("output lacks %q:\n%s", tc.want, out)
			}
			if last := log[len(log)-1]; last != tc.last {
				t.Errorf("last run %q, want the bad one, %q", last, tc.last)
			}
		})
	}
}

func TestUsage(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"only-one"}, &out, &out); code != 2 {
		t.Errorf("one argument: exit %d, want 2", code)
	}
	if code := run([]string{t.TempDir(), t.TempDir()}, &out, &out); code != 2 {
		t.Errorf("no BENCHMARK.json: exit %d, want 2", code)
	}
}
