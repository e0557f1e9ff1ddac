// Package r8 models the R8 soft-core processor of the MultiNoC system
// (§2.4): a 16-bit load-store Von Neumann machine with a 16x16-bit
// register file, PC, SP, IR, four status flags (N Z C V), 36
// instructions and a CPI between 2 and 4.
//
// The original R8 specification is no longer published; the ISA here is
// a reconstruction that satisfies every constraint the paper states,
// including the three-register ST used by the wait/notify example
// ("ST R3, R1, R2" stores R3 at address R1+R2). opTable below is the
// full encoding: format, major opcode and sub-code of every instruction.
package r8

import "fmt"

// Op enumerates the 36 R8 instructions.
type Op uint8

// The instruction set, grouped by operation class.
const (
	// ALU register-register: rt = rs1 op rs2.
	ADD Op = iota
	SUB
	AND
	OR
	XOR
	// ALU immediate: rt = rt op imm8 (LDL/LDH replace a byte half).
	ADDI
	SUBI
	LDL
	LDH
	// Memory: LD rt,rs1,rs2 reads mem[rs1+rs2]; ST writes rt there.
	LD
	ST
	// Conditional relative jumps: PC += disp8 when the condition holds.
	JMP
	JMPN
	JMPZ
	JMPC
	JMPV
	JMPNN
	JMPNZ
	JMPNC
	JMPNV
	// Subroutine call: push return address, PC += disp8.
	JSR
	// Unary/shift: rt = f(rs).
	SL0
	SL1
	SR0
	SR1
	NOT
	MOV
	// System group.
	PUSH
	POP
	LDSP
	RDSP
	RTS
	NOP
	HALT
	JMPR
	JSRR
	numOps
)

// NumOps is the instruction count — the paper's "36 distinct
// instructions".
const NumOps = int(numOps)

// Cond indexes the nine jump conditions (always, flag set, flag clear).
type Cond uint8

// Jump conditions, encoded in the cond field of J-format instructions.
const (
	CondAL Cond = iota // always
	CondN              // negative set
	CondZ              // zero set
	CondC              // carry set
	CondV              // overflow set
	CondNN             // negative clear
	CondNZ             // zero clear
	CondNC             // carry clear
	CondNV             // overflow clear
)

// Format describes how an instruction's fields are packed.
type Format uint8

// Instruction formats: the field layout of a 16-bit instruction word.
const (
	FmtR Format = iota // [op:4][rt:4][rs1:4][rs2:4]
	FmtI               // [op:4][rt:4][imm:8]
	FmtJ               // [op:4][cond:4][disp:8]
	FmtU               // [0xD][rt:4][rs:4][sub:4]
	FmtS               // [0xF][sub:4][rt:4][rs:4]
)

type opInfo struct {
	name   string
	format Format
	major  uint16 // top nibble of the encoding
	sub    uint16 // cond (J), sub (U/S); unused otherwise
}

var opTable = [numOps]opInfo{
	ADD:   {"ADD", FmtR, 0x0, 0},
	SUB:   {"SUB", FmtR, 0x1, 0},
	AND:   {"AND", FmtR, 0x2, 0},
	OR:    {"OR", FmtR, 0x3, 0},
	XOR:   {"XOR", FmtR, 0x4, 0},
	ADDI:  {"ADDI", FmtI, 0x5, 0},
	SUBI:  {"SUBI", FmtI, 0x6, 0},
	LDL:   {"LDL", FmtI, 0x7, 0},
	LDH:   {"LDH", FmtI, 0x8, 0},
	LD:    {"LD", FmtR, 0x9, 0},
	ST:    {"ST", FmtR, 0xA, 0},
	JMP:   {"JMP", FmtJ, 0xB, uint16(CondAL)},
	JMPN:  {"JMPN", FmtJ, 0xB, uint16(CondN)},
	JMPZ:  {"JMPZ", FmtJ, 0xB, uint16(CondZ)},
	JMPC:  {"JMPC", FmtJ, 0xB, uint16(CondC)},
	JMPV:  {"JMPV", FmtJ, 0xB, uint16(CondV)},
	JMPNN: {"JMPNN", FmtJ, 0xB, uint16(CondNN)},
	JMPNZ: {"JMPNZ", FmtJ, 0xB, uint16(CondNZ)},
	JMPNC: {"JMPNC", FmtJ, 0xB, uint16(CondNC)},
	JMPNV: {"JMPNV", FmtJ, 0xB, uint16(CondNV)},
	JSR:   {"JSR", FmtJ, 0xC, uint16(CondAL)},
	SL0:   {"SL0", FmtU, 0xD, 0x0},
	SL1:   {"SL1", FmtU, 0xD, 0x1},
	SR0:   {"SR0", FmtU, 0xD, 0x2},
	SR1:   {"SR1", FmtU, 0xD, 0x3},
	NOT:   {"NOT", FmtU, 0xD, 0x4},
	MOV:   {"MOV", FmtU, 0xD, 0x5},
	PUSH:  {"PUSH", FmtS, 0xF, 0x0},
	POP:   {"POP", FmtS, 0xF, 0x1},
	LDSP:  {"LDSP", FmtS, 0xF, 0x2},
	RDSP:  {"RDSP", FmtS, 0xF, 0x3},
	RTS:   {"RTS", FmtS, 0xF, 0x4},
	NOP:   {"NOP", FmtS, 0xF, 0x5},
	HALT:  {"HALT", FmtS, 0xF, 0x6},
	JMPR:  {"JMPR", FmtS, 0xF, 0x7},
	JSRR:  {"JSRR", FmtS, 0xF, 0x8},
}

// String returns the assembler mnemonic.
func (o Op) String() string {
	if int(o) < len(opTable) {
		return opTable[o].name
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Fmt reports the instruction's encoding format.
func (o Op) Fmt() Format { return opTable[o].format }

// Inst is one decoded instruction.
type Inst struct {
	Op   Op
	Rt   int // destination / source register (FmtR, FmtI, FmtU, FmtS)
	Rs1  int // first source (FmtR); source (FmtU, FmtS)
	Rs2  int // second source (FmtR)
	Imm  uint8
	Disp int8
}

// Encode packs the instruction into its 16-bit machine word.
func (i Inst) Encode() (uint16, error) {
	if int(i.Op) >= NumOps {
		return 0, fmt.Errorf("r8: invalid opcode %d", i.Op)
	}
	info := opTable[i.Op]
	reg := func(r int, field string) (uint16, error) {
		if r < 0 || r > 15 {
			return 0, fmt.Errorf("r8: %s: register %d out of range", info.name, r)
		}
		return uint16(r), nil
	}
	switch info.format {
	case FmtR:
		rt, err := reg(i.Rt, "rt")
		if err != nil {
			return 0, err
		}
		rs1, err := reg(i.Rs1, "rs1")
		if err != nil {
			return 0, err
		}
		rs2, err := reg(i.Rs2, "rs2")
		if err != nil {
			return 0, err
		}
		return info.major<<12 | rt<<8 | rs1<<4 | rs2, nil
	case FmtI:
		rt, err := reg(i.Rt, "rt")
		if err != nil {
			return 0, err
		}
		return info.major<<12 | rt<<8 | uint16(i.Imm), nil
	case FmtJ:
		return info.major<<12 | info.sub<<8 | uint16(uint8(i.Disp)), nil
	case FmtU:
		rt, err := reg(i.Rt, "rt")
		if err != nil {
			return 0, err
		}
		rs, err := reg(i.Rs1, "rs")
		if err != nil {
			return 0, err
		}
		return info.major<<12 | rt<<8 | rs<<4 | info.sub, nil
	case FmtS:
		rt, err := reg(i.Rt, "rt")
		if err != nil {
			return 0, err
		}
		rs, err := reg(i.Rs1, "rs")
		if err != nil {
			return 0, err
		}
		return info.major<<12 | info.sub<<8 | rt<<4 | rs, nil
	}
	return 0, fmt.Errorf("r8: unknown format for %s", info.name)
}

// opByCode maps a major opcode and sub-code to its instruction: the
// sub-code is the cond of J format, the sub of U and S formats and 0
// for R and I formats, whose major alone names them. Unassigned codes
// hold numOps.
var opByCode = func() (t [16][16]Op) {
	for i := range t {
		for j := range t[i] {
			t[i][j] = numOps
		}
	}
	for op := Op(0); op < numOps; op++ {
		t[opTable[op].major][opTable[op].sub] = op
	}
	return t
}()

// Decode unpacks a machine word. Unassigned encodings return an error;
// the CPU treats them as illegal instructions.
func Decode(w uint16) (Inst, error) {
	major := w >> 12
	switch major {
	case 0xB, 0xC:
		cond := (w >> 8) & 0xF
		op := opByCode[major][cond]
		if op == numOps {
			return Inst{}, fmt.Errorf("r8: illegal jump condition %d in %#04x", cond, w)
		}
		return Inst{Op: op, Disp: int8(w & 0xFF)}, nil
	case 0xD:
		sub := w & 0xF
		op := opByCode[major][sub]
		if op == numOps {
			return Inst{}, fmt.Errorf("r8: illegal unary sub-op %d in %#04x", sub, w)
		}
		return Inst{Op: op, Rt: int(w >> 8 & 0xF), Rs1: int(w >> 4 & 0xF)}, nil
	case 0xF:
		sub := (w >> 8) & 0xF
		op := opByCode[major][sub]
		if op == numOps {
			return Inst{}, fmt.Errorf("r8: illegal system sub-op %d in %#04x", sub, w)
		}
		return Inst{Op: op, Rt: int(w >> 4 & 0xF), Rs1: int(w & 0xF)}, nil
	}
	op := opByCode[major][0]
	switch {
	case op == numOps:
		return Inst{}, fmt.Errorf("r8: illegal instruction %#04x", w)
	case opTable[op].format == FmtI:
		return Inst{Op: op, Rt: int(w >> 8 & 0xF), Imm: uint8(w & 0xFF)}, nil
	}
	return Inst{
		Op:  op,
		Rt:  int(w >> 8 & 0xF),
		Rs1: int(w >> 4 & 0xF),
		Rs2: int(w & 0xF),
	}, nil
}

// OpByName resolves an assembler mnemonic (case-sensitive, upper case).
func OpByName(name string) (Op, bool) {
	for op := Op(0); op < numOps; op++ {
		if opTable[op].name == name {
			return op, true
		}
	}
	return 0, false
}
