package r8

import (
	"strings"
	"testing"
	"testing/quick"
)

// ram is a flat, always-ready bus for core tests.
type ram struct {
	m      [65536]uint16
	reads  int
	writes int
}

func (r *ram) Read(addr uint16) (uint16, bool) { r.reads++; return r.m[addr], true }
func (r *ram) Write(addr, v uint16) bool       { r.writes++; r.m[addr] = v; return true }

// stallBus makes the CPU wait `stall` cycles before each access
// completes, mimicking the waitR8 signal.
type stallBus struct {
	ram
	stall int
	count int
}

func (b *stallBus) Read(addr uint16) (uint16, bool) {
	if b.count < b.stall {
		b.count++
		return 0, false
	}
	b.count = 0
	return b.ram.Read(addr)
}

func (b *stallBus) Write(addr, v uint16) bool {
	if b.count < b.stall {
		b.count++
		return false
	}
	b.count = 0
	return b.ram.Write(addr, v)
}

// assemble encodes instructions into memory at address 0.
func loadProgram(t testing.TB, r *ram, insts ...Inst) {
	t.Helper()
	for i, inst := range insts {
		w, err := inst.Encode()
		if err != nil {
			t.Fatalf("encode %v: %v", inst, err)
		}
		r.m[i] = w
	}
}

// run steps the CPU until HALT or the cycle budget is exhausted.
func run(t testing.TB, c *CPU, bus Bus, max int) {
	t.Helper()
	for i := 0; i < max && !c.Halted(); i++ {
		c.Step(bus)
	}
	if !c.Halted() {
		t.Fatalf("CPU did not halt within %d cycles (PC=%#x)", max, c.PC)
	}
	if c.Err() != nil {
		t.Fatalf("CPU error: %v", c.Err())
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	if err := quick.Check(func(op8, rt8, rs18, rs28, imm uint8) bool {
		op := Op(op8 % uint8(NumOps))
		in := Inst{Op: op, Rt: int(rt8 % 16), Rs1: int(rs18 % 16), Rs2: int(rs28 % 16),
			Imm: imm, Disp: int8(imm)}
		w, err := in.Encode()
		if err != nil {
			return false
		}
		out, err := Decode(w)
		if err != nil {
			return false
		}
		switch op.Fmt() {
		case FmtR:
			return out.Op == op && out.Rt == in.Rt && out.Rs1 == in.Rs1 && out.Rs2 == in.Rs2
		case FmtI:
			return out.Op == op && out.Rt == in.Rt && out.Imm == in.Imm
		case FmtJ:
			return out.Op == op && out.Disp == in.Disp
		case FmtU:
			return out.Op == op && out.Rt == in.Rt && out.Rs1 == in.Rs1
		case FmtS:
			return out.Op == op && out.Rt == in.Rt && out.Rs1 == in.Rs1
		}
		return false
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestThirtySixInstructions(t *testing.T) {
	if NumOps != 36 {
		t.Fatalf("instruction count = %d, want the paper's 36", NumOps)
	}
	seen := map[string]bool{}
	for op := Op(0); op < numOps; op++ {
		name := op.String()
		if seen[name] {
			t.Errorf("duplicate mnemonic %s", name)
		}
		seen[name] = true
		if got, ok := OpByName(name); !ok || got != op {
			t.Errorf("OpByName(%s) = %v,%v", name, got, ok)
		}
	}
	if _, ok := OpByName("BOGUS"); ok {
		t.Error("OpByName accepted BOGUS")
	}
}

func TestDecodeIllegal(t *testing.T) {
	for _, w := range []uint16{
		0xE000, // unused major
		0xB900, // jump condition 9
		0xD006, // unary sub 6
		0xF900, // system sub 9
		0xC100, // JSR with non-AL condition
	} {
		if _, err := Decode(w); err == nil {
			t.Errorf("Decode(%#04x) succeeded, want error", w)
		}
	}
}

// decodeRef decodes w by a linear search of opTable, the reference for
// Decode's lookup table. ok is false for an unassigned encoding.
func decodeRef(w uint16) (in Inst, ok bool) {
	major, hi, lo := w>>12, w>>8&0xF, w&0xF
	for op := Op(0); op < numOps; op++ {
		info := opTable[op]
		if info.major != major {
			continue
		}
		switch info.format {
		case FmtR:
			return Inst{Op: op, Rt: int(hi), Rs1: int(w >> 4 & 0xF), Rs2: int(lo)}, true
		case FmtI:
			return Inst{Op: op, Rt: int(hi), Imm: uint8(w)}, true
		case FmtJ:
			if hi == info.sub {
				return Inst{Op: op, Disp: int8(w)}, true
			}
		case FmtU:
			if lo == info.sub {
				return Inst{Op: op, Rt: int(hi), Rs1: int(w >> 4 & 0xF)}, true
			}
		case FmtS:
			if hi == info.sub {
				return Inst{Op: op, Rt: int(w >> 4 & 0xF), Rs1: int(lo)}, true
			}
		}
	}
	return Inst{}, false
}

// TestDecodeExhaustive: every one of the 65,536 words decodes to the
// instruction a linear search of opTable finds, or is illegal under
// both, and every legal word encodes back to itself.
func TestDecodeExhaustive(t *testing.T) {
	legal := 0
	for i := 0; i < 1<<16; i++ {
		w := uint16(i)
		got, err := Decode(w)
		want, ok := decodeRef(w)
		if ok != (err == nil) {
			t.Fatalf("Decode(%#04x) error %v, reference legal %v", w, err, ok)
		}
		if !ok {
			continue
		}
		legal++
		if got != want {
			t.Fatalf("Decode(%#04x) = %+v, reference %+v", w, got, want)
		}
		if back, err := got.Encode(); err != nil || back != w {
			t.Fatalf("Decode(%#04x) = %+v encodes to %#04x, %v", w, got, back, err)
		}
	}
	if legal == 0 {
		t.Fatal("no legal encoding")
	}
}

func TestALUArithmetic(t *testing.T) {
	cases := []struct {
		name       string
		op         Op
		a, b       uint16
		want       uint16
		n, z, c, v bool
	}{
		{"add simple", ADD, 2, 3, 5, false, false, false, false},
		{"add carry", ADD, 0xFFFF, 1, 0, false, true, true, false},
		{"add overflow", ADD, 0x7FFF, 1, 0x8000, true, false, false, true},
		{"add neg", ADD, 0x8000, 0x8000, 0, false, true, true, true},
		{"sub simple", SUB, 5, 3, 2, false, false, true, false},
		{"sub zero", SUB, 7, 7, 0, false, true, true, false},
		{"sub borrow", SUB, 3, 5, 0xFFFE, true, false, false, false},
		{"sub overflow", SUB, 0x8000, 1, 0x7FFF, false, false, true, true},
		{"and", AND, 0xF0F0, 0xFF00, 0xF000, true, false, false, false},
		{"or zero", OR, 0, 0, 0, false, true, false, false},
		{"xor", XOR, 0xAAAA, 0xAAAA, 0, false, true, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := &ram{}
			c := New()
			c.Regs[1], c.Regs[2] = tc.a, tc.b
			loadProgram(t, r,
				Inst{Op: tc.op, Rt: 3, Rs1: 1, Rs2: 2},
				Inst{Op: HALT},
			)
			run(t, c, r, 100)
			if c.Regs[3] != tc.want {
				t.Errorf("result = %#x, want %#x", c.Regs[3], tc.want)
			}
			if c.N != tc.n || c.Z != tc.z || c.C != tc.c || c.V != tc.v {
				t.Errorf("flags NZCV = %v%v%v%v, want %v%v%v%v",
					c.N, c.Z, c.C, c.V, tc.n, tc.z, tc.c, tc.v)
			}
		})
	}
}

func TestShifts(t *testing.T) {
	cases := []struct {
		op    Op
		in    uint16
		want  uint16
		carry bool
	}{
		{SL0, 0x8001, 0x0002, true},
		{SL1, 0x4000, 0x8001, false},
		{SR0, 0x0001, 0x0000, true},
		{SR1, 0x0002, 0x8001, false},
	}
	for _, tc := range cases {
		t.Run(tc.op.String(), func(t *testing.T) {
			r := &ram{}
			c := New()
			c.Regs[1] = tc.in
			loadProgram(t, r, Inst{Op: tc.op, Rt: 2, Rs1: 1}, Inst{Op: HALT})
			run(t, c, r, 100)
			if c.Regs[2] != tc.want || c.C != tc.carry {
				t.Errorf("%s(%#x) = %#x C=%v, want %#x C=%v",
					tc.op, tc.in, c.Regs[2], c.C, tc.want, tc.carry)
			}
		})
	}
}

func TestLDLAndLDHBuildConstant(t *testing.T) {
	r := &ram{}
	c := New()
	loadProgram(t, r,
		Inst{Op: LDH, Rt: 1, Imm: 0xAB},
		Inst{Op: LDL, Rt: 1, Imm: 0xCD},
		Inst{Op: HALT},
	)
	run(t, c, r, 100)
	if c.Regs[1] != 0xABCD {
		t.Errorf("R1 = %#x, want 0xABCD", c.Regs[1])
	}
}

func TestLoadStore(t *testing.T) {
	r := &ram{}
	c := New()
	r.m[0x0150] = 0xBEEF
	c.Regs[1], c.Regs[2] = 0x0100, 0x0050
	c.Regs[3] = 0xCAFE
	loadProgram(t, r,
		Inst{Op: LD, Rt: 4, Rs1: 1, Rs2: 2}, // R4 = mem[0x150]
		Inst{Op: ST, Rt: 3, Rs1: 1, Rs2: 2}, // mem[0x150] = R3
		Inst{Op: HALT},
	)
	run(t, c, r, 100)
	if c.Regs[4] != 0xBEEF {
		t.Errorf("LD: R4 = %#x, want 0xBEEF", c.Regs[4])
	}
	if r.m[0x0150] != 0xCAFE {
		t.Errorf("ST: mem = %#x, want 0xCAFE", r.m[0x0150])
	}
}

func TestConditionalJumps(t *testing.T) {
	// SUB R3,R1,R2 with equal values sets Z; JMPZ must skip the
	// poison instruction.
	r := &ram{}
	c := New()
	c.Regs[1], c.Regs[2] = 9, 9
	loadProgram(t, r,
		Inst{Op: SUB, Rt: 3, Rs1: 1, Rs2: 2},
		Inst{Op: JMPZ, Disp: 1},
		Inst{Op: LDL, Rt: 5, Imm: 0xEE}, // must be skipped
		Inst{Op: HALT},
	)
	run(t, c, r, 100)
	if c.Regs[5] == 0xEE {
		t.Error("JMPZ not taken on Z=1")
	}

	// Not-taken path.
	r2 := &ram{}
	c2 := New()
	c2.Regs[1], c2.Regs[2] = 9, 5
	loadProgram(t, r2,
		Inst{Op: SUB, Rt: 3, Rs1: 1, Rs2: 2},
		Inst{Op: JMPZ, Disp: 1},
		Inst{Op: LDL, Rt: 5, Imm: 0xEE}, // must execute
		Inst{Op: HALT},
	)
	run(t, c2, r2, 100)
	if c2.Regs[5] != 0xEE {
		t.Error("JMPZ taken on Z=0")
	}
}

func TestBackwardJumpLoop(t *testing.T) {
	// R1 counts 10 down to 0.
	r := &ram{}
	c := New()
	c.Regs[1] = 10
	loadProgram(t, r,
		Inst{Op: SUBI, Rt: 1, Imm: 1}, // 0
		Inst{Op: JMPNZ, Disp: -2},     // 1: loop while R1 != 0
		Inst{Op: HALT},                // 2
	)
	run(t, c, r, 1000)
	if c.Regs[1] != 0 {
		t.Errorf("R1 = %d, want 0", c.Regs[1])
	}
}

func TestJSRAndRTS(t *testing.T) {
	r := &ram{}
	c := New()
	loadProgram(t, r,
		Inst{Op: JSR, Disp: 2},          // 0: call 3
		Inst{Op: LDL, Rt: 2, Imm: 0x22}, // 1: after return
		Inst{Op: HALT},                  // 2
		Inst{Op: LDL, Rt: 1, Imm: 0x11}, // 3: subroutine body
		Inst{Op: RTS},                   // 4
	)
	run(t, c, r, 1000)
	if c.Regs[1] != 0x11 || c.Regs[2] != 0x22 {
		t.Errorf("R1=%#x R2=%#x, want 0x11 0x22", c.Regs[1], c.Regs[2])
	}
	if c.SP != 0x03FF {
		t.Errorf("SP = %#x, want balanced 0x03FF", c.SP)
	}
}

func TestPushPop(t *testing.T) {
	r := &ram{}
	c := New()
	c.Regs[1], c.Regs[2] = 0x1111, 0x2222
	loadProgram(t, r,
		Inst{Op: PUSH, Rs1: 1},
		Inst{Op: PUSH, Rs1: 2},
		Inst{Op: POP, Rt: 3},
		Inst{Op: POP, Rt: 4},
		Inst{Op: HALT},
	)
	run(t, c, r, 1000)
	if c.Regs[3] != 0x2222 || c.Regs[4] != 0x1111 {
		t.Errorf("LIFO violated: R3=%#x R4=%#x", c.Regs[3], c.Regs[4])
	}
}

func TestLDSPAndRDSP(t *testing.T) {
	r := &ram{}
	c := New()
	c.Regs[1] = 0x0200
	loadProgram(t, r,
		Inst{Op: LDSP, Rs1: 1},
		Inst{Op: RDSP, Rt: 2},
		Inst{Op: PUSH, Rs1: 1},
		Inst{Op: RDSP, Rt: 3},
		Inst{Op: HALT},
	)
	run(t, c, r, 1000)
	if c.Regs[2] != 0x0200 {
		t.Errorf("RDSP = %#x, want 0x0200", c.Regs[2])
	}
	if c.Regs[3] != 0x01FF {
		t.Errorf("SP after push = %#x, want 0x01FF", c.Regs[3])
	}
	if r.m[0x0200] != 0x0200 {
		t.Errorf("pushed value at %#x = %#x", 0x0200, r.m[0x0200])
	}
}

func TestJMPRAndJSRR(t *testing.T) {
	r := &ram{}
	c := New()
	c.Regs[1] = 4 // subroutine address
	loadProgram(t, r,
		Inst{Op: JSRR, Rs1: 1},          // 0
		Inst{Op: HALT},                  // 1
		Inst{Op: NOP},                   // 2
		Inst{Op: NOP},                   // 3
		Inst{Op: LDL, Rt: 2, Imm: 0x55}, // 4
		Inst{Op: RTS},                   // 5
	)
	run(t, c, r, 1000)
	if c.Regs[2] != 0x55 {
		t.Errorf("JSRR subroutine not executed: R2=%#x", c.Regs[2])
	}
}

func TestIllegalInstructionHalts(t *testing.T) {
	r := &ram{}
	r.m[0] = 0xE000
	c := New()
	for i := 0; i < 10 && !c.Halted(); i++ {
		c.Step(r)
	}
	if !c.Halted() || c.Err() == nil {
		t.Fatalf("illegal instruction not trapped: halted=%v err=%v", c.Halted(), c.Err())
	}
}

// TestCPIRange is experiment E11: the paper states CPI between 2 and 4.
func TestCPIRange(t *testing.T) {
	cases := []struct {
		name string
		prog []Inst
		cpi  float64
	}{
		{"alu", []Inst{{Op: ADD, Rt: 1, Rs1: 2, Rs2: 3}}, 2},
		{"imm", []Inst{{Op: ADDI, Rt: 1, Imm: 1}}, 2},
		{"jump", []Inst{{Op: JMP, Disp: 0}}, 2},
		{"load", []Inst{{Op: LD, Rt: 1, Rs1: 2, Rs2: 3}}, 3},
		{"store", []Inst{{Op: ST, Rt: 1, Rs1: 2, Rs2: 3}}, 3},
		{"push", []Inst{{Op: PUSH, Rs1: 1}}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := &ram{}
			c := New()
			c.SP = 0x8000
			// Repeat the instruction 50 times then halt.
			var prog []Inst
			for i := 0; i < 50; i++ {
				prog = append(prog, tc.prog...)
			}
			prog = append(prog, Inst{Op: HALT})
			loadProgram(t, r, prog...)
			run(t, c, r, 10000)
			// Exclude the HALT from accounting noise by bounding.
			got := c.CPI()
			if got < tc.cpi-0.1 || got > tc.cpi+0.1 {
				t.Errorf("CPI = %.2f, want ~%.1f", got, tc.cpi)
			}
		})
	}
}

func TestCPICallReturn(t *testing.T) {
	r := &ram{}
	c := New()
	loadProgram(t, r,
		Inst{Op: JSR, Disp: 1}, // 0 -> 2
		Inst{Op: HALT},         // 1
		Inst{Op: RTS},          // 2
	)
	run(t, c, r, 1000)
	// JSR: 4 cycles, RTS: 4 cycles, HALT: 2 cycles = 10.
	if c.Cycles != 10 {
		t.Errorf("call/return cycles = %d, want 10", c.Cycles)
	}
	if c.CPI() < 2 || c.CPI() > 4 {
		t.Errorf("CPI %.2f outside the paper's [2,4]", c.CPI())
	}
}

func TestStallingBusPreservesSemantics(t *testing.T) {
	// The same program must compute the same result regardless of bus
	// wait states; only cycle counts change. This is the waitR8
	// contract the Processor IP relies on.
	exec := func(stall int) (*CPU, uint64) {
		bus := &stallBus{stall: stall}
		c := New()
		c.Regs[1] = 10
		loadProgram(t, &bus.ram,
			Inst{Op: LDL, Rt: 2, Imm: 0},
			Inst{Op: ADD, Rt: 2, Rs1: 2, Rs2: 1}, // R2 += R1
			Inst{Op: SUBI, Rt: 1, Imm: 1},
			Inst{Op: JMPNZ, Disp: -3},
			Inst{Op: ST, Rt: 2, Rs1: 3, Rs2: 3}, // store at 0
			Inst{Op: HALT},
		)
		c.Regs[3] = 0x100
		for i := 0; i < 100000 && !c.Halted(); i++ {
			c.Step(bus)
		}
		if !c.Halted() {
			t.Fatal("did not halt")
		}
		return c, c.Cycles
	}
	c0, cyc0 := exec(0)
	c3, cyc3 := exec(3)
	if c0.Regs[2] != 55 || c3.Regs[2] != 55 {
		t.Errorf("sum = %d / %d, want 55", c0.Regs[2], c3.Regs[2])
	}
	if cyc3 <= cyc0 {
		t.Errorf("stalled run not slower: %d vs %d", cyc3, cyc0)
	}
}

func TestCPUDeterminism(t *testing.T) {
	if err := quick.Check(func(seed uint16) bool {
		mk := func() *CPU {
			r := &ram{}
			c := New()
			c.Regs[1] = seed
			loadProgram(t, r,
				Inst{Op: ADDI, Rt: 1, Imm: 7},
				Inst{Op: SL0, Rt: 2, Rs1: 1},
				Inst{Op: XOR, Rt: 3, Rs1: 1, Rs2: 2},
				Inst{Op: HALT},
			)
			for i := 0; i < 100 && !c.Halted(); i++ {
				c.Step(r)
			}
			return c
		}
		a, b := mk(), mk()
		return a.Regs == b.Regs && a.Cycles == b.Cycles
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestDisasm(t *testing.T) {
	cases := []struct {
		inst Inst
		want string
	}{
		{Inst{Op: ADD, Rt: 1, Rs1: 2, Rs2: 3}, "ADD R1, R2, R3"},
		{Inst{Op: ADDI, Rt: 4, Imm: 10}, "ADDI R4, 10"},
		{Inst{Op: JMPZ, Disp: -4}, "JMPZ -4"},
		{Inst{Op: MOV, Rt: 1, Rs1: 2}, "MOV R1, R2"},
		{Inst{Op: PUSH, Rs1: 5}, "PUSH R5"},
		{Inst{Op: POP, Rt: 6}, "POP R6"},
		{Inst{Op: HALT}, "HALT"},
	}
	for _, tc := range cases {
		if got := tc.inst.Disasm(); got != tc.want {
			t.Errorf("Disasm = %q, want %q", got, tc.want)
		}
	}
	if !strings.HasPrefix(DisasmWord(0xE123), ".word") {
		t.Errorf("illegal word disasm = %q", DisasmWord(0xE123))
	}
	if DisasmWord(0xF500) != "NOP" {
		t.Errorf("NOP disasm = %q", DisasmWord(0xF500))
	}
}
