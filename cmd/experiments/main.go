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
	"io"
	"maps"
	"os"
	"slices"
	"strings"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run resolves -only before anything runs, so an ID that names no
// section is an error that costs no experiment and writes no file.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	out := fs.String("o", "", "write the report to a file (default: stdout)")
	only := fs.String("only", "", "comma-separated experiment IDs to run")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits
	want := map[string]bool{}
	var sections []experiments.Section
	if *only != "" {
		for _, id := range strings.Split(strings.ToUpper(*only), ",") {
			want[strings.TrimSpace(id)] = true
		}
		for _, s := range experiments.All() {
			if want[s.ID] {
				sections = append(sections, s)
				delete(want, s.ID)
			}
		}
	}
	if len(want) > 0 {
		return fmt.Errorf("-only: no experiment %q", slices.Sorted(maps.Keys(want)))
	}

	if *out == "" {
		return write(stdout, sections)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := write(f, sections); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// write prints the whole report, or only sections when -only named
// some.
func write(w io.Writer, sections []experiments.Section) error {
	if sections == nil {
		return experiments.Report(w, "")
	}
	for _, s := range sections {
		if err := s.Write(w, ""); err != nil {
			return err
		}
	}
	return nil
}
