package r8asm_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/edge"
	"repro/internal/r8asm"
)

// FuzzAssemble assembles arbitrary source twice. Assembly must never
// panic, the two runs must return equal Programs and equal errors, and
// every failure must be an ErrorList whose lines lie in [1, lines of
// the source]. The seeds are the Sobel
// kernel at widths 3, 16 and 64 and the committed corpus
// (testdata/fuzz/FuzzAssemble): E12's reduction, the examples'
// programs and every source asm_test.go assembles.
func FuzzAssemble(f *testing.F) {
	for _, w := range []int{3, 16, 64} {
		f.Add(edge.ProgramSource(w))
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := r8asm.Assemble(src)
		q, err2 := r8asm.Assemble(src)
		if !reflect.DeepEqual(p, q) || !reflect.DeepEqual(err, err2) {
			t.Fatalf("two assemblies differ:\n  %+v, %v\n  %+v, %v", p, err, q, err2)
		}
		if err == nil {
			return
		}
		var list r8asm.ErrorList
		if !errors.As(err, &list) || len(list) == 0 {
			t.Fatalf("error %T is not a populated ErrorList: %v", err, err)
		}
		lines := strings.Count(src, "\n") + 1
		for _, e := range list {
			if e.Line < 1 || e.Line > lines {
				t.Fatalf("diagnostic %q outside the source's %d lines", e.Error(), lines)
			}
		}
	})
}
