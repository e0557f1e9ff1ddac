package r8sim

import (
	"testing"
	"testing/quick"

	"repro/internal/r8"
	"repro/internal/r8asm"
	"repro/internal/sim"
)

func TestRunsAssembledProgram(t *testing.T) {
	p, err := r8asm.Assemble(`
		LDI R1, 6
		LDI R2, 7
		CLR R3
loop:	ADD R3, R3, R1
		DEC R2
		JMPNZ loop
		LDI R4, out
		CLR R0
		ST R3, R4, R0
		HALT
out:	.word 0
	`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(1024)
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	halted, err := m.Run(10000)
	if !halted || err != nil {
		t.Fatalf("halted=%v err=%v", halted, err)
	}
	if got := m.Mem[p.Symbols["out"]]; got != 42 {
		t.Errorf("6*7 = %d, want 42", got)
	}
}

func TestPrintfScanfHooks(t *testing.T) {
	p, err := r8asm.Assemble(`
		LDI R1, 0xFFFF
		CLR R0
		LD R2, R1, R0   ; scanf
		ST R2, R1, R0   ; printf the same value
		HALT
	`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(1024)
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	var printed []uint16
	m.Scanf = func() uint16 { return 0x1234 }
	m.Printf = func(v uint16) { printed = append(printed, v) }
	if _, err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	if len(printed) != 1 || printed[0] != 0x1234 {
		t.Errorf("printf saw %v, want [0x1234]", printed)
	}
}

func TestBreakpoint(t *testing.T) {
	p, err := r8asm.Assemble("NOP\nNOP\nbp: NOP\nHALT")
	if err != nil {
		t.Fatal(err)
	}
	m := New(1024)
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	m.Breakpoints[p.Symbols["bp"]] = true
	halted, err := m.Run(100)
	if halted || err == nil {
		t.Fatalf("breakpoint not hit: halted=%v err=%v", halted, err)
	}
	if m.PC != p.Symbols["bp"] {
		t.Errorf("stopped at %#04x, want %#04x", m.PC, p.Symbols["bp"])
	}
}

func TestTraceHook(t *testing.T) {
	p, err := r8asm.Assemble("NOP\nNOP\nHALT")
	if err != nil {
		t.Fatal(err)
	}
	m := New(1024)
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	var ops []r8.Op
	m.Trace = func(pc uint16, inst r8.Inst) { ops = append(ops, inst.Op) }
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(ops) != 3 || ops[0] != r8.NOP || ops[2] != r8.HALT {
		t.Errorf("trace = %v", ops)
	}
}

func TestIllegalTraps(t *testing.T) {
	m := New(1024)
	m.Mem[0] = 0xE000
	halted, err := m.Run(10)
	if !halted || err == nil {
		t.Fatalf("illegal not trapped: %v %v", halted, err)
	}
}

// cpuRAM adapts the functional machine's memory for the cycle-accurate
// core, without I/O interception (differential runs avoid IOAddr).
type cpuRAM struct{ m []uint16 }

func (r *cpuRAM) Read(a uint16) (uint16, bool) { return r.m[int(a)%len(r.m)], true }
func (r *cpuRAM) Write(a, v uint16) bool       { r.m[int(a)%len(r.m)] = v; return true }

// TestDifferentialAgainstCycleAccurateCore runs randomly generated
// programs on both R8 implementations and requires identical
// architectural state after every instruction. This is the
// cross-check the paper's flow performs manually (simulate first, then
// run on hardware). Programs draw from every instruction but HALT,
// which only ends them, and jump both ways, so they loop, call and
// return through the stack, and move SP.
func TestDifferentialAgainstCycleAccurateCore(t *testing.T) {
	rng := sim.NewRand(2024)
	ops := []r8.Op{
		r8.ADD, r8.SUB, r8.AND, r8.OR, r8.XOR,
		r8.ADDI, r8.SUBI, r8.LDL, r8.LDH,
		r8.LD, r8.ST,
		r8.SL0, r8.SL1, r8.SR0, r8.SR1, r8.NOT, r8.MOV,
		r8.PUSH, r8.POP, r8.LDSP, r8.RDSP, r8.NOP,
		r8.JMP, r8.JMPZ, r8.JMPC, r8.JMPN, r8.JMPV,
		r8.JMPNZ, r8.JMPNC, r8.JMPNN, r8.JMPNV,
		r8.JSR, r8.JSRR, r8.JMPR, r8.RTS,
	}
	executed := make(map[r8.Op]int)
	var lastPC uint16
	backward := 0
	for trial := 0; trial < 200; trial++ {
		const progLen = 64
		words := make([]uint16, progLen)
		for i := range words {
			op := ops[rng.Intn(len(ops))]
			inst := r8.Inst{
				Op:  op,
				Rt:  rng.Intn(16),
				Rs1: rng.Intn(16),
				Rs2: rng.Intn(16),
				Imm: uint8(rng.Intn(256)),
				// Backward jumps loop; the step cap below bounds them.
				Disp: int8(rng.Intn(16) - 8),
			}
			w, err := inst.Encode()
			if err != nil {
				t.Fatal(err)
			}
			words[i] = w
		}
		// Terminate with HALT.
		halt, _ := r8.Inst{Op: r8.HALT}.Encode()
		words = append(words, halt)

		fm := New(1024)
		copy(fm.Mem, words)
		fm.Trace = func(pc uint16, inst r8.Inst) {
			executed[inst.Op]++
			lastPC = pc
		}
		cc := r8.New()
		ram := &cpuRAM{m: make([]uint16, 1024)}
		copy(ram.m, words)
		// Keep SP inside memory and identical.
		fm.SP, cc.SP = 0x03FF, 0x03FF
		// Seed registers identically.
		for i := range fm.Regs {
			v := uint16(rng.Uint64())
			fm.Regs[i], cc.Regs[i] = v, v
		}

		for step := 0; step < 1000; step++ {
			if fm.Halted() {
				break
			}
			before := cc.Retired
			for !cc.Halted() && cc.Retired == before {
				cc.Step(ram)
			}
			fm.StepInst()
			if !fm.Halted() && fm.PC <= lastPC {
				backward++
			}
			if fm.Halted() != cc.Halted() {
				t.Fatalf("trial %d step %d: halted %v vs %v", trial, step, fm.Halted(), cc.Halted())
			}
			if fm.Err() != nil && cc.Err() != nil {
				// Both trapped on the same illegal word (self-modifying
				// random code); PC conventions differ at a trap — the
				// functional machine points at the faulting word, the
				// core has pre-incremented during fetch.
				break
			}
			if fm.PC != cc.PC || fm.SP != cc.SP {
				t.Fatalf("trial %d step %d: PC/SP %#04x/%#04x vs %#04x/%#04x",
					trial, step, fm.PC, fm.SP, cc.PC, cc.SP)
			}
			if fm.Regs != cc.Regs {
				t.Fatalf("trial %d step %d: registers diverged\nfunc: %v\ncyc:  %v",
					trial, step, fm.Regs, cc.Regs)
			}
			if fm.N != cc.N || fm.Z != cc.Z || fm.C != cc.C || fm.V != cc.V {
				t.Fatalf("trial %d step %d: flags diverged", trial, step)
			}
		}
		for i := range ram.m {
			if fm.Mem[i] != ram.m[i] {
				t.Fatalf("trial %d: memory diverged at %#04x: %#x vs %#x",
					trial, i, fm.Mem[i], ram.m[i])
			}
		}
	}
	for _, op := range append(ops, r8.HALT) {
		if executed[op] == 0 {
			t.Errorf("no program executed %s", op)
		}
	}
	if backward == 0 {
		t.Error("no program jumped backwards")
	}
}

func TestFunctionalDeterminism(t *testing.T) {
	if err := quick.Check(func(a, b uint16) bool {
		mk := func() *Machine {
			m := New(1024)
			m.Regs[1], m.Regs[2] = a, b
			add, _ := r8.Inst{Op: r8.ADD, Rt: 3, Rs1: 1, Rs2: 2}.Encode()
			halt, _ := r8.Inst{Op: r8.HALT}.Encode()
			m.Mem[0], m.Mem[1] = add, halt
			m.Run(10)
			return m
		}
		x, y := mk(), mk()
		return x.Regs == y.Regs && x.N == y.N && x.C == y.C
	}, nil); err != nil {
		t.Error(err)
	}
}
