// Seaofprocessors scales MultiNoC the way §3 and the future-work
// section describe: the same pre-verified IP cores instantiated on a
// larger mesh — here a 4x4 Hermes NoC carrying fourteen R8 processors
// and one remote memory. Every processor sums a private slice of a
// global workload; the host collects the partial sums and reports the
// scaling curve.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
)

const totalWork = 840 // divisible by 1,2,4,7,14

func sumProgram(count int) string {
	return fmt.Sprintf(`
	.equ N, %d
	CLR R0
	CLR R1
	LDI R2, data
	CLR R3
loop:	LD R4, R2, R3
	ADD R1, R1, R4
	INC R3
	LDI R5, N
	SUB R6, R3, R5
	JMPNZ loop
	LDI R7, 0x0100
	ST R1, R7, R0
	HALT
data:	.space %d`, count, count)
}

func run(nProcs int) uint64 {
	cfg, err := core.Scaled(4, 4, 14, 1)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Boot(); err != nil {
		log.Fatal(err)
	}
	chunk := totalWork / nProcs
	ids := make([]int, nProcs)
	for i := range ids {
		ids[i] = i + 1
	}
	prog, err := sys.LoadProgramDirect(sumProgram(chunk), ids...)
	if err != nil {
		log.Fatal(err)
	}
	base := prog.Symbols["data"]
	for _, id := range ids {
		for i := 0; i < chunk; i++ {
			sys.Proc(id).Banks().Write(base+uint16(i), uint16(id))
		}
	}
	start := sys.Clk.Cycle()
	for _, id := range ids {
		if err := sys.Activate(id); err != nil {
			log.Fatal(err)
		}
	}
	if err := sys.RunUntilHalted(50_000_000, ids...); err != nil {
		log.Fatal(err)
	}
	elapsed := sys.Clk.Cycle() - start
	for id := 1; id <= nProcs; id++ {
		if got := sys.Proc(id).Banks().Read(0x0100); got != uint16(chunk*id) {
			log.Fatalf("P%d sum = %d, want %d", id, got, chunk*id)
		}
	}
	return elapsed
}

func main() {
	fmt.Println("4x4 Hermes mesh: serial IP + 14 R8 processors + remote memory")
	fmt.Printf("fixed total work: summing %d words, split across the processors\n\n", totalWork)
	fmt.Printf("%10s %12s %9s %11s\n", "processors", "cycles", "speedup", "efficiency")
	var base uint64
	for _, n := range []int{1, 2, 4, 7, 14} {
		c := run(n)
		if n == 1 {
			base = c
		}
		sp := float64(base) / float64(c)
		fmt.Printf("%10d %12d %8.2fx %10.0f%%\n", n, c, sp, 100*sp/float64(n))
	}
	fmt.Println("\nall partial sums verified; activation is serialized over RS-232, which")
	fmt.Println("bounds efficiency at high processor counts (the paper's host-interface limit).")
}
