// Command experiments prints the paper-vs-measured report: one markdown
// section per quantitative claim or figure of the paper, in the order
// of experiments.All (the index). The report is deterministic.
//
// Usage:
//
//	experiments [-o report.md] [-only E1,E8]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	out := flag.String("o", "", "write the report to a file (default: stdout)")
	only := flag.String("only", "", "comma-separated experiment IDs to run")
	flag.Parse()

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if *only == "" {
		if err := experiments.Report(w); err != nil {
			fatal(err)
		}
		return
	}
	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		want[strings.TrimSpace(strings.ToUpper(id))] = true
	}
	for _, s := range experiments.All() {
		if !want[s.ID] {
			continue
		}
		fmt.Fprintf(w, "\n## %s: %s\n\n", s.ID, s.Name)
		if err := s.Run(w); err != nil {
			fatal(fmt.Errorf("%s: %w", s.ID, err))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
