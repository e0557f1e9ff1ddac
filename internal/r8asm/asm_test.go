package r8asm

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/r8"
)

func assemble(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("Assemble failed:\n%v", err)
	}
	return p
}

func words(t *testing.T, p *Program) []uint16 {
	t.Helper()
	if len(p.Segments) != 1 {
		t.Fatalf("want one segment, got %d", len(p.Segments))
	}
	return p.Segments[0].Words
}

func decode(t *testing.T, w uint16) r8.Inst {
	t.Helper()
	inst, err := r8.Decode(w)
	if err != nil {
		t.Fatalf("decode %#04x: %v", w, err)
	}
	return inst
}

func TestBasicInstructions(t *testing.T) {
	p := assemble(t, `
		ADD R1, R2, R3
		ADDI R4, 10
		MOV R5, R6
		PUSH R7
		POP R8
		RTS
		HALT
	`)
	ws := words(t, p)
	wantOps := []r8.Op{r8.ADD, r8.ADDI, r8.MOV, r8.PUSH, r8.POP, r8.RTS, r8.HALT}
	if len(ws) != len(wantOps) {
		t.Fatalf("got %d words, want %d", len(ws), len(wantOps))
	}
	for i, op := range wantOps {
		if got := decode(t, ws[i]).Op; got != op {
			t.Errorf("word %d: op %s, want %s", i, got, op)
		}
	}
	in := decode(t, ws[0])
	if in.Rt != 1 || in.Rs1 != 2 || in.Rs2 != 3 {
		t.Errorf("ADD fields: %+v", in)
	}
	if in = decode(t, ws[3]); in.Rs1 != 7 {
		t.Errorf("PUSH source = R%d, want R7", in.Rs1)
	}
	if in = decode(t, ws[4]); in.Rt != 8 {
		t.Errorf("POP target = R%d, want R8", in.Rt)
	}
}

func TestLabelsAndJumps(t *testing.T) {
	p := assemble(t, `
		CLR R1
loop:	ADDI R1, 1
		SUBI R2, 1
		JMPNZ loop
		HALT
	`)
	ws := words(t, p)
	jmp := decode(t, ws[3])
	if jmp.Op != r8.JMPNZ {
		t.Fatalf("op = %s", jmp.Op)
	}
	// loop is at 1, jump at 3: disp = 1 - 3 - 1 = -3.
	if jmp.Disp != -3 {
		t.Errorf("disp = %d, want -3", jmp.Disp)
	}
}

func TestForwardReference(t *testing.T) {
	p := assemble(t, `
		JMP end
		NOP
end:	HALT
	`)
	ws := words(t, p)
	if d := decode(t, ws[0]).Disp; d != 1 {
		t.Errorf("forward disp = %d, want 1", d)
	}
}

func TestLDIPseudo(t *testing.T) {
	p := assemble(t, "LDI R3, 0xABCD\nHALT")
	ws := words(t, p)
	hi, lo := decode(t, ws[0]), decode(t, ws[1])
	if hi.Op != r8.LDH || hi.Imm != 0xAB || hi.Rt != 3 {
		t.Errorf("LDI hi = %+v", hi)
	}
	if lo.Op != r8.LDL || lo.Imm != 0xCD || lo.Rt != 3 {
		t.Errorf("LDI lo = %+v", lo)
	}
}

func TestPseudos(t *testing.T) {
	p := assemble(t, "CLR R2\nINC R3\nDEC R4")
	ws := words(t, p)
	if in := decode(t, ws[0]); in.Op != r8.XOR || in.Rt != 2 || in.Rs1 != 2 || in.Rs2 != 2 {
		t.Errorf("CLR = %+v", in)
	}
	if in := decode(t, ws[1]); in.Op != r8.ADDI || in.Imm != 1 {
		t.Errorf("INC = %+v", in)
	}
	if in := decode(t, ws[2]); in.Op != r8.SUBI || in.Imm != 1 {
		t.Errorf("DEC = %+v", in)
	}
}

func TestDirectives(t *testing.T) {
	p := assemble(t, `
		.equ TOP, 0x03FF
		.equ NEXT, TOP+1
		NOP
		.org 0x0100
data:	.word 1, 2, 0xFFFF, 'A', NEXT
buf:	.space 3
msg:	.string "hi"
	`)
	if len(p.Segments) != 2 {
		t.Fatalf("segments = %d, want 2", len(p.Segments))
	}
	if p.Symbols["data"] != 0x0100 {
		t.Errorf("data = %#04x", p.Symbols["data"])
	}
	if p.Symbols["buf"] != 0x0105 {
		t.Errorf("buf = %#04x", p.Symbols["buf"])
	}
	if p.Symbols["msg"] != 0x0108 {
		t.Errorf("msg = %#04x", p.Symbols["msg"])
	}
	seg := p.Segments[1]
	want := []uint16{1, 2, 0xFFFF, 'A', 0x0400, 0, 0, 0, 'h', 'i', 0}
	if len(seg.Words) != len(want) {
		t.Fatalf("segment words = %v", seg.Words)
	}
	for i, w := range want {
		if seg.Words[i] != w {
			t.Errorf("word %d = %#x, want %#x", i, seg.Words[i], w)
		}
	}
}

func TestCommentsAndCase(t *testing.T) {
	p := assemble(t, `
		nop           ; semicolon comment
		add r1, r2, r3 // slash comment
	`)
	ws := words(t, p)
	if len(ws) != 2 {
		t.Fatalf("words = %d, want 2", len(ws))
	}
	if decode(t, ws[1]).Op != r8.ADD {
		t.Error("lower-case mnemonic not accepted")
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"unknown mnemonic", "FROB R1", "unknown mnemonic"},
		{"bad register", "ADD R1, R99, R2", "bad register"},
		{"not a register", "ADD R1, 5, R2", "not a register"},
		{"wrong operand count", "ADD R1, R2", "wants 3 operand"},
		{"imm too big", "ADDI R1, 300", "exceeds 8 bits"},
		{"undefined symbol", "JMP nowhere", "undefined symbol"},
		{"redefined label", "a: NOP\na: NOP", "redefined"},
		{"jump out of range", "JMP far\n.org 0x200\nfar: NOP", "out of range"},
		{"overlap", "NOP\nNOP\n.org 0x0001\nNOP", "overlap"},
		{"bad string", `.string hi`, "bad string"},
		{"rts operands", "RTS R1", "wants 0 operand"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Assemble(tc.src)
			if err == nil {
				t.Fatal("assembled without error")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
			var list ErrorList
			if !errors.As(err, &list) || len(list) == 0 {
				t.Errorf("error is not a populated ErrorList: %T", err)
			}
		})
	}
}

// TestOverlapNamesTheLaterOrg: a segment overlap is reported on the
// line of whichever of the two .org directives comes later in the
// source, whatever their addresses.
func TestOverlapNamesTheLaterOrg(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{".org 0\n.word 1, 2, 3\n.org 1\n.word 9", "line 3: segments at 0x0000 and 0x0001 overlap"},
		{".org 5\n.word 1\n.org 0\n.word 1, 2, 3, 4, 5, 6", "line 3: segments at 0x0000 and 0x0005 overlap"},
		{"NOP\nNOP\n\n.org 0x0001\nNOP", "line 4: segments at 0x0000 and 0x0001 overlap"},
	} {
		if _, err := Assemble(tc.src); err == nil || err.Error() != tc.want {
			t.Errorf("%q: error %v, want %q", tc.src, err, tc.want)
		}
	}
}

func TestMultipleErrorsReported(t *testing.T) {
	_, err := Assemble("FROB R1\nADD R1, R99, R2\nJMP nowhere")
	var list ErrorList
	if !errors.As(err, &list) {
		t.Fatalf("error type %T", err)
	}
	if len(list) != 3 {
		t.Errorf("got %d errors, want 3:\n%v", len(list), err)
	}
	if list[0].Line != 1 || list[1].Line != 2 || list[2].Line != 3 {
		t.Errorf("line numbers: %+v", list)
	}
}

func TestFlatten(t *testing.T) {
	p := assemble(t, "NOP\n.org 0x3FE\n.word 7, 8")
	img, err := p.Flatten(1024)
	if err != nil {
		t.Fatal(err)
	}
	if img[0x3FE] != 7 || img[0x3FF] != 8 {
		t.Errorf("flatten misplaced data: %v %v", img[0x3FE], img[0x3FF])
	}
	if _, err := p.Flatten(512); err == nil {
		t.Error("overflowing flatten accepted")
	}
}

func TestObjectRoundTrip(t *testing.T) {
	p := assemble(t, `
		LDI R1, 0x1234
		HALT
		.org 0x0200
		.word 0xDEAD, 0xBEEF
	`)
	var buf bytes.Buffer
	if err := WriteObject(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := ParseObject(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Segments) != len(p.Segments) {
		t.Fatalf("segments %d vs %d", len(q.Segments), len(p.Segments))
	}
	for i := range p.Segments {
		if q.Segments[i].Base != p.Segments[i].Base {
			t.Errorf("segment %d base %#x vs %#x", i, q.Segments[i].Base, p.Segments[i].Base)
		}
		if len(q.Segments[i].Words) != len(p.Segments[i].Words) {
			t.Fatalf("segment %d size mismatch", i)
		}
		for j := range p.Segments[i].Words {
			if q.Segments[i].Words[j] != p.Segments[i].Words[j] {
				t.Errorf("segment %d word %d: %#x vs %#x",
					i, j, q.Segments[i].Words[j], p.Segments[i].Words[j])
			}
		}
	}
}

func TestParseObjectErrors(t *testing.T) {
	for _, src := range []string{"@XYZ", "GGGG", "@0000\n123456"} {
		if _, err := ParseObject(strings.NewReader(src)); err == nil {
			t.Errorf("ParseObject(%q) succeeded", src)
		}
	}
}

func TestAssembledProgramRunsOnCPU(t *testing.T) {
	// End-to-end: assemble a 10-element sum, run it on the
	// cycle-accurate core, check memory.
	p := assemble(t, `
		.equ N, 10
		CLR R0          ; index base
		CLR R1          ; sum
		LDI R2, data
		CLR R3          ; i
loop:	LD R4, R2, R3   ; R4 = data[i]
		ADD R1, R1, R4
		INC R3
		LDI R5, N
		SUB R6, R3, R5
		JMPNZ loop
		LDI R7, result
		ST R1, R7, R0
		HALT
data:	.word 1,2,3,4,5,6,7,8,9,10
result:	.word 0
	`)
	img, err := p.Flatten(1024)
	if err != nil {
		t.Fatal(err)
	}
	mem := &testRAM{}
	copy(mem.m[:], img)
	cpu := r8.New()
	for i := 0; i < 10000 && !cpu.Halted(); i++ {
		cpu.Step(mem)
	}
	if !cpu.Halted() {
		t.Fatal("program did not halt")
	}
	if cpu.Err() != nil {
		t.Fatal(cpu.Err())
	}
	if got := mem.m[p.Symbols["result"]]; got != 55 {
		t.Errorf("result = %d, want 55", got)
	}
}

type testRAM struct{ m [1024]uint16 }

func (r *testRAM) Read(a uint16) (uint16, bool) { return r.m[a%1024], true }
func (r *testRAM) Write(a, v uint16) bool       { r.m[a%1024] = v; return true }

func TestCharacterLiteralEdgeCases(t *testing.T) {
	// Space, semicolon and slash literals must survive comment
	// stripping and expression evaluation.
	p := assemble(t, `
		LDI R2, ' '    ; trailing comment
		LDI R3, ';'
		LDI R4, '/'
		.word ' ', ';', '/'  // another comment
	`)
	ws := words(t, p)
	if lo := decode(t, ws[1]); lo.Imm != ' ' {
		t.Errorf("space literal = %d", lo.Imm)
	}
	if lo := decode(t, ws[3]); lo.Imm != ';' {
		t.Errorf("semicolon literal = %d", lo.Imm)
	}
	if lo := decode(t, ws[5]); lo.Imm != '/' {
		t.Errorf("slash literal = %d", lo.Imm)
	}
	if ws[6] != ' ' || ws[7] != ';' || ws[8] != '/' {
		t.Errorf("literal words = %v", ws[6:9])
	}
}

func TestCharLiteralInExpression(t *testing.T) {
	p := assemble(t, ".word 'A'+1, 'z'-'a'")
	ws := words(t, p)
	if ws[0] != 'B' {
		t.Errorf("'A'+1 = %d", ws[0])
	}
	if ws[1] != 25 {
		t.Errorf("'z'-'a' = %d", ws[1])
	}
}

func TestObjectFormatProperty(t *testing.T) {
	// Arbitrary word contents and segment bases must survive the
	// textual object round trip.
	if err := quick.Check(func(base uint16, raw []uint16) bool {
		if len(raw) == 0 {
			raw = []uint16{0}
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		p := &Program{Segments: []Segment{{Base: base, Words: raw}}}
		var buf bytes.Buffer
		if err := WriteObject(&buf, p); err != nil {
			return false
		}
		q, err := ParseObject(&buf)
		if err != nil || len(q.Segments) != 1 || q.Segments[0].Base != base {
			return false
		}
		if len(q.Segments[0].Words) != len(raw) {
			return false
		}
		for i := range raw {
			if q.Segments[0].Words[i] != raw[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
