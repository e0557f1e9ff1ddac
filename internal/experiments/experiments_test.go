package experiments

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/report.md from this tree's report under the default kernel")

// pinnedReport is `go run ./cmd/experiments`' output, committed so that
// a change to any paper figure shows in review as a diff of this file.
const pinnedReport = "testdata/report.md"

var (
	pinOnce sync.Once
	pinErr  error
)

// readPinned returns the pinned report. With -update it first rewrites
// the file, once per test binary, from the default kernel's report.
func readPinned(t *testing.T) string {
	t.Helper()
	if *update {
		pinOnce.Do(func() {
			var sb strings.Builder
			if pinErr = Report(&sb, ""); pinErr == nil {
				pinErr = os.WriteFile(pinnedReport, []byte(sb.String()), 0o644)
			}
		})
		if pinErr != nil {
			t.Fatal(pinErr)
		}
	}
	want, err := os.ReadFile(pinnedReport)
	if err != nil {
		t.Fatal(err)
	}
	return string(want)
}

// TestAllSectionsRun executes every experiment end to end under the
// default kernel, one parallel subtest per section; each section
// carries its own internal assertions (mismatches return errors), and
// its output must be its part of the pinned report byte for byte. The
// section's output is spliced into the pinned report in place of that
// part, so a mismatch names the report's line.
func TestAllSectionsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep; skipped in -short (race CI) runs")
	}
	want := readPinned(t)
	for _, s := range All() {
		t.Run(s.ID, func(t *testing.T) {
			t.Parallel()
			start := strings.Index(want, "\n## "+s.ID+":")
			if start < 0 {
				t.Fatalf("%s has no section %s (-update rewrites it)", pinnedReport, s.ID)
			}
			end := len(want)
			if i := strings.Index(want[start+1:], "\n## "); i >= 0 {
				end = start + 1 + i
			}
			var sb strings.Builder
			err := s.Write(&sb, "")
			out := sb.String()
			if d := reportDiff(want, want[:start]+out+want[end:]); d != "" {
				t.Errorf("%s differs from %s (-update rewrites it): %s", s.ID, pinnedReport, d)
			}
			if err != nil {
				t.Fatalf("%s failed: %v", s.ID, err)
			}
			if !strings.Contains(out, "|") {
				t.Errorf("%s produced no table:\n%s", s.ID, out)
			}
		})
	}
}

// TestReportUnderOracleKernels runs the whole report under the two
// oracle kernels, nowarp and dense, and requires each to be the pinned
// report byte for byte. With TestAllSectionsRun, which runs the default
// kernel section by section, every kernel prints the pinned report. A
// run that stops at an error is still compared up to where it stopped.
func TestReportUnderOracleKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep; skipped in -short (race CI) runs")
	}
	want := readPinned(t)
	for _, k := range []sim.Kernel{"nowarp", "dense"} {
		t.Run(fmt.Sprintf("kernel=%q", k), func(t *testing.T) {
			t.Parallel()
			var sb strings.Builder
			err := Report(&sb, k)
			if d := reportDiff(want, sb.String()); d != "" {
				t.Errorf("kernel %q: report differs from %s (-update rewrites it): %s", k, pinnedReport, d)
			}
			if err != nil {
				t.Errorf("kernel %q: %v", k, err)
			}
		})
	}
}

// reportDiff names the section and the first line at which got departs
// from want, or returns "" when the two are equal.
func reportDiff(want, got string) string {
	if want == got {
		return ""
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	line := func(ls []string, i int) string {
		if i < len(ls) {
			return ls[i]
		}
		return "(end of report)"
	}
	section := "preamble"
	for i := 0; i < max(len(w), len(g)); i++ {
		wl, gl := line(w, i), line(g, i)
		if wl != gl {
			return fmt.Sprintf("section %s, line %d: want %q, got %q", section, i+1, wl, gl)
		}
		if id, ok := strings.CutPrefix(wl, "## "); ok {
			section, _, _ = strings.Cut(id, ":")
		}
	}
	return "the reports differ"
}

func TestReportDiffNamesSectionAndLine(t *testing.T) {
	want := "# R\n\n## E1: one\n\n| a |\n\n## E2: two\n\n| b |\n| c |\n"
	for _, c := range []struct{ got, diff string }{
		{want, ""},
		{strings.Replace(want, "| c |", "| d |", 1), `section E2, line 10: want "| c |", got "| d |"`},
		{strings.Replace(want, "| a |", "| a |\n| x |", 1), `section E1, line 6: want "", got "| x |"`},
		{strings.TrimSuffix(want, "| c |\n"), `section E2, line 10: want "| c |", got ""`},
		{"# R\n", `section preamble, line 3: want "## E1: one", got "(end of report)"`},
	} {
		if d := reportDiff(want, c.got); d != c.diff {
			t.Errorf("reportDiff(%q) = %q, want %q", c.got, d, c.diff)
		}
	}
}
