package r8asm_test

import (
	"testing"

	"repro/internal/edge"
	"repro/internal/r8asm"
)

// BenchmarkAssemble assembles the width-16 Sobel kernel, the program
// every system-edge job downloads; allocs/op is the assembler's share
// of the job's set-up objects (TestSystemSetupAllocs).
func BenchmarkAssemble(b *testing.B) {
	b.ReportAllocs()
	src := edge.ProgramSource(16)
	for i := 0; i < b.N; i++ {
		if _, err := r8asm.Assemble(src); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAssembleAllocs bounds the heap objects of one assembly of the
// width-16 Sobel kernel at 15% over the 108 it allocates: about one per
// line with operands, since labels, mnemonics, operands and expression
// terms are slices of the source.
func TestAssembleAllocs(t *testing.T) {
	const bound = 124
	src := edge.ProgramSource(16)
	got := testing.AllocsPerRun(10, func() {
		if _, err := r8asm.Assemble(src); err != nil {
			t.Fatal(err)
		}
	})
	if got > bound {
		t.Errorf("assembling the Sobel kernel allocated %.0f objects, want at most %d", got, bound)
	}
}
