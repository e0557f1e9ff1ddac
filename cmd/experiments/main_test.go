package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOnly: -only runs the sections it names, in report order and
// under their report headers, and an ID that names no section is an
// error before any section runs or any file is written.
func TestOnly(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-only", " e5,E4"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	e4, e5 := strings.Index(out, "\n## E4: XC2S200E"), strings.Index(out, "\n## E5: NoC area")
	if e4 < 0 || e5 < e4 || strings.Contains(out, "# MultiNoC") {
		t.Errorf("-only e5,E4 printed\n%s\nwant sections E4 then E5 and no report title", out)
	}

	for _, only := range []string{"E99", "E4,E99", "E4,"} {
		path := filepath.Join(t.TempDir(), "report.md")
		var buf bytes.Buffer
		err := run([]string{"-o", path, "-only", only}, &buf)
		if err == nil || !strings.Contains(err.Error(), "no experiment") {
			t.Errorf("-only %s: err = %v, want an unknown-experiment error", only, err)
		}
		if buf.Len() != 0 {
			t.Errorf("-only %s printed %q", only, buf.String())
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("-only %s created %s", only, path)
		}
	}
}
