package experiments

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/report.md with this tree's report")

// pinnedReport is `go run ./cmd/experiments`' output, committed so that
// a change to any paper figure shows in review as a diff of this file.
const pinnedReport = "testdata/report.md"

// TestAllSectionsRun executes every experiment end to end; each section
// carries its own internal assertions (mismatches return errors).
func TestAllSectionsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep; skipped in -short (race CI) runs")
	}
	for _, s := range All() {
		t.Run(s.ID, func(t *testing.T) {
			var sb strings.Builder
			if err := s.Run(&sb); err != nil {
				t.Fatalf("%s failed: %v", s.ID, err)
			}
			out := sb.String()
			if !strings.Contains(out, "|") {
				t.Errorf("%s produced no table:\n%s", s.ID, out)
			}
		})
	}
}

// TestReportIsComplete checks the full report contains every section
// header and the regeneration note.
func TestReportIsComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep; skipped in -short (race CI) runs")
	}
	var sb strings.Builder
	if err := Report(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, s := range All() {
		if !strings.Contains(out, "## "+s.ID+":") {
			t.Errorf("report missing section %s", s.ID)
		}
	}
	if !strings.Contains(out, "cmd/experiments") {
		t.Error("report missing regeneration note")
	}
}

// TestReportDeterminism: two runs must produce byte-identical output
// (fixed seeds, no time dependence), and that output must be the
// pinned report. With -update it rewrites the pinned report instead.
func TestReportDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep; skipped in -short (race CI) runs")
	}
	var a, b strings.Builder
	if err := Report(&a); err != nil {
		t.Fatal(err)
	}
	if err := Report(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("report is not deterministic")
	}
	if *update {
		if err := os.WriteFile(pinnedReport, []byte(a.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(pinnedReport)
	if err != nil {
		t.Fatal(err)
	}
	if d := reportDiff(string(want), a.String()); d != "" {
		t.Errorf("report differs from %s (-update rewrites it): %s", pinnedReport, d)
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
