// Package r8asm is the two-pass assembler for the R8 processor — the
// role the paper's "R8 Simulator environment" [3] plays in the original
// flow: it turns assembly source into the object code the host's serial
// software downloads into a processor's local memory (§4).
//
// Syntax summary:
//
//	; comment              -- also "//"
//	label:  ADD R1, R2, R3
//	        LDI R4, 0x1234  ; pseudo: LDH+LDL pair
//	        JMPNZ loop      ; label resolved to a relative displacement
//	        .org  0x0020
//	        .equ  TOP, 0x03FF
//	val:    .word 1, 2, 0xFFFF, 'A', TOP+1
//	msg:    .string "hi\n"
//	buf:    .space 16
//
// Numbers are decimal, 0x/0b prefixed, or 'c' character literals.
// Expressions support + and - over numbers, labels and .equ symbols.
package r8asm

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/r8"
)

// Program is assembled object code: one or more memory segments plus
// the symbol table.
type Program struct {
	Segments []Segment
	Symbols  map[string]uint16
}

// Segment is a contiguous run of words at Base.
type Segment struct {
	Base  uint16
	Words []uint16
}

// Size returns the total word count across segments.
func (p *Program) Size() int {
	n := 0
	for _, s := range p.Segments {
		n += len(s.Words)
	}
	return n
}

// Flatten lays the program into a memory image of the given word
// capacity (1024 for a MultiNoC local memory), failing when a segment
// exceeds it.
func (p *Program) Flatten(capWords int) ([]uint16, error) {
	img := make([]uint16, capWords)
	for _, s := range p.Segments {
		if int(s.Base)+len(s.Words) > capWords {
			return nil, fmt.Errorf("r8asm: segment at %#04x (+%d words) exceeds memory of %d words",
				s.Base, len(s.Words), capWords)
		}
		copy(img[s.Base:], s.Words)
	}
	return img, nil
}

// Error is an assembly diagnostic tied to a source line.
type Error struct {
	Line int
	Msg  string
}

func (e Error) Error() string { return fmt.Sprintf("line %d: %s", e.Line, e.Msg) }

// ErrorList collects every diagnostic of an assembly run.
type ErrorList []Error

func (l ErrorList) Error() string {
	if len(l) == 0 {
		return "no errors"
	}
	parts := make([]string, 0, len(l))
	for _, e := range l {
		parts = append(parts, e.Error())
	}
	return strings.Join(parts, "\n")
}

type item struct {
	line  int
	label string
	mnem  string
	args  []string
	addr  uint16
	size  uint16 // words emitted
}

type assembler struct {
	items   []item
	symbols map[string]uint16
	segs    []Segment // emit's output, in source order
	errs    ErrorList
}

// Assemble translates source into a Program. On failure it returns an
// ErrorList covering every diagnosed line.
func Assemble(src string) (*Program, error) {
	a := &assembler{symbols: make(map[string]uint16)}
	a.parse(src)
	a.layout()
	prog := a.emit()
	if len(a.errs) > 0 {
		return nil, a.errs
	}
	return prog, nil
}

func (a *assembler) errorf(line int, format string, args ...any) {
	a.errs = append(a.errs, Error{Line: line, Msg: fmt.Sprintf(format, args...)})
}

// parse splits source lines into labelled items. Labels, mnemonics
// and arguments are slices of the source, so a line costs at most its
// argument list.
func (a *assembler) parse(src string) {
	a.items = make([]item, 0, strings.Count(src, "\n")+1)
	line := 0
	for raw := range strings.Lines(src) {
		line++
		text := strings.TrimSpace(stripComment(raw))
		if text == "" {
			continue
		}
		it := item{line: line}
		if i := strings.Index(text, ":"); i >= 0 && !strings.ContainsAny(text[:i], " \t\"") {
			it.label = strings.TrimSpace(text[:i])
			if !validSymbol(it.label) {
				a.errorf(line, "invalid label %q", it.label)
			}
			text = strings.TrimSpace(text[i+1:])
		}
		if text != "" {
			mnem, args, ok := strings.Cut(text, " ")
			it.mnem = strings.ToUpper(mnem)
			if ok {
				it.args = splitArgs(args)
			}
		}
		a.items = append(a.items, it)
	}
}

// stripComment removes ';' and '//' comments, ignoring comment starters
// inside string or character literals (e.g. LDI R2, ';').
func stripComment(s string) string {
	inStr, inChr := false, false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\\' && (inStr || inChr):
			i++
		case c == '"' && !inChr:
			inStr = !inStr
		case c == '\'' && !inStr:
			inChr = !inChr
		case inStr || inChr:
		case c == ';':
			return s[:i]
		case c == '/' && i+1 < len(s) && s[i+1] == '/':
			return s[:i]
		}
	}
	return s
}

// splitArgs splits on commas outside quoted strings. Each argument is
// a trimmed slice of s, so the list is the only allocation.
func splitArgs(s string) []string {
	args := make([]string, 0, strings.Count(s, ",")+1)
	inStr, start := false, 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"':
			inStr = !inStr
		case c == '\\' && inStr:
			i++ // an escaped quote does not end the string
		case c == ',' && !inStr:
			args = append(args, strings.TrimSpace(s[start:i]))
			start = i + 1
		}
	}
	if t := strings.TrimSpace(s[start:]); t != "" || len(args) > 0 {
		args = append(args, t)
	}
	return args
}

func validSymbol(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

// layout is pass 1: assign addresses and define symbols.
func (a *assembler) layout() {
	pc := uint16(0)
	for i := range a.items {
		it := &a.items[i]
		it.addr = pc
		switch it.mnem {
		case ".ORG":
			if v, ok := a.evalArg(it, 0, "address"); ok {
				pc = v
				it.addr = pc
			}
		case ".EQU":
			if len(it.args) != 2 {
				a.errorf(it.line, ".equ wants NAME, value")
				continue
			}
			name := it.args[0]
			if !validSymbol(name) {
				a.errorf(it.line, "invalid .equ name %q", name)
				continue
			}
			if v, ok := a.eval(it.line, it.args[1]); ok {
				a.define(it.line, name, v)
			}
		case ".WORD":
			it.size = uint16(len(it.args))
		case ".SPACE":
			if v, ok := a.evalArg(it, 0, "size"); ok {
				it.size = v
			}
		case ".STRING":
			if len(it.args) != 1 {
				a.errorf(it.line, ".string wants one quoted argument")
				continue
			}
			s, err := strconv.Unquote(it.args[0])
			if err != nil {
				a.errorf(it.line, "bad string %s: %v", it.args[0], err)
				continue
			}
			it.size = uint16(len(s) + 1) // NUL terminated, one char per word
		case "LDI":
			it.size = 2
		case "":
			// label-only line
		default:
			if _, ok := r8.OpByName(it.mnem); !ok {
				if pseudoSize(it.mnem) < 0 {
					a.errorf(it.line, "unknown mnemonic %q", it.mnem)
					continue
				}
			}
			it.size = 1
		}
		if it.label != "" {
			a.define(it.line, it.label, it.addr)
		}
		pc += it.size
	}
}

// pseudoSize reports the word count of single-word pseudo-instructions,
// or -1 when the mnemonic is not a pseudo.
func pseudoSize(m string) int {
	switch m {
	case "CLR", "INC", "DEC":
		return 1
	}
	return -1
}

func (a *assembler) define(line int, name string, v uint16) {
	if _, dup := a.symbols[name]; dup {
		a.errorf(line, "symbol %q redefined", name)
		return
	}
	a.symbols[name] = v
}

// put appends words to the segment being emitted. It is a method, not
// a closure handed to emitInst, so its variadic words stay on the stack.
func (a *assembler) put(words ...uint16) {
	if len(a.segs) == 0 {
		a.segs = append(a.segs, Segment{Base: 0})
	}
	s := &a.segs[len(a.segs)-1]
	s.Words = append(s.Words, words...)
}

// emit is pass 2: encode every item.
func (a *assembler) emit() *Program {
	for i := range a.items {
		it := &a.items[i]
		switch it.mnem {
		case "", ".EQU":
		case ".ORG":
			a.segs = append(a.segs, Segment{Base: it.addr})
		case ".WORD":
			for j := range it.args {
				v, _ := a.evalArg(it, j, "word")
				a.put(v)
			}
		case ".SPACE":
			for j := uint16(0); j < it.size; j++ {
				a.put(0)
			}
		case ".STRING":
			if len(it.args) == 1 {
				if s, err := strconv.Unquote(it.args[0]); err == nil {
					for _, c := range []byte(s) {
						a.put(uint16(c))
					}
					a.put(0)
				}
			}
		default:
			a.emitInst(it)
		}
	}
	p := &Program{Symbols: a.symbols}
	for _, s := range a.segs {
		if len(s.Words) > 0 {
			p.Segments = append(p.Segments, s)
		}
	}
	sort.Slice(p.Segments, func(i, j int) bool { return p.Segments[i].Base < p.Segments[j].Base })
	// Overlap check.
	for i := 1; i < len(p.Segments); i++ {
		prev, cur := p.Segments[i-1], p.Segments[i]
		if int(prev.Base)+len(prev.Words) > int(cur.Base) {
			a.errorf(0, "segments at %#04x and %#04x overlap", prev.Base, cur.Base)
		}
	}
	return p
}

func (a *assembler) emitInst(it *item) {
	switch it.mnem {
	case "LDI": // LDI rt, imm16 -> LDH + LDL
		rt, ok := a.reg(it, 0)
		if !ok {
			return
		}
		v, ok := a.evalArg(it, 1, "immediate")
		if !ok {
			return
		}
		hi, _ := r8.Inst{Op: r8.LDH, Rt: rt, Imm: uint8(v >> 8)}.Encode()
		lo, _ := r8.Inst{Op: r8.LDL, Rt: rt, Imm: uint8(v)}.Encode()
		a.put(hi, lo)
		return
	case "CLR": // CLR rt -> XOR rt, rt, rt
		rt, ok := a.reg(it, 0)
		if !ok {
			return
		}
		w, _ := r8.Inst{Op: r8.XOR, Rt: rt, Rs1: rt, Rs2: rt}.Encode()
		a.put(w)
		return
	case "INC": // INC rt -> ADDI rt, 1
		rt, ok := a.reg(it, 0)
		if !ok {
			return
		}
		w, _ := r8.Inst{Op: r8.ADDI, Rt: rt, Imm: 1}.Encode()
		a.put(w)
		return
	case "DEC": // DEC rt -> SUBI rt, 1
		rt, ok := a.reg(it, 0)
		if !ok {
			return
		}
		w, _ := r8.Inst{Op: r8.SUBI, Rt: rt, Imm: 1}.Encode()
		a.put(w)
		return
	}

	op, ok := r8.OpByName(it.mnem)
	if !ok {
		return // already diagnosed in layout
	}
	inst := r8.Inst{Op: op}
	want := func(n int) bool {
		if len(it.args) != n {
			a.errorf(it.line, "%s wants %d operand(s), got %d", it.mnem, n, len(it.args))
			return false
		}
		return true
	}
	switch op.Fmt() {
	case r8.FmtR:
		if !want(3) {
			return
		}
		var ok1, ok2, ok3 bool
		inst.Rt, ok1 = a.reg(it, 0)
		inst.Rs1, ok2 = a.reg(it, 1)
		inst.Rs2, ok3 = a.reg(it, 2)
		if !ok1 || !ok2 || !ok3 {
			return
		}
	case r8.FmtI:
		if !want(2) {
			return
		}
		rt, ok := a.reg(it, 0)
		if !ok {
			return
		}
		v, ok := a.evalArg(it, 1, "immediate")
		if !ok {
			return
		}
		if v > 0xFF {
			a.errorf(it.line, "immediate %d exceeds 8 bits (use LDI)", v)
			return
		}
		inst.Rt, inst.Imm = rt, uint8(v)
	case r8.FmtJ:
		if !want(1) {
			return
		}
		target, ok := a.evalArg(it, 0, "target")
		if !ok {
			return
		}
		disp := int(target) - int(it.addr) - 1
		if disp < -128 || disp > 127 {
			a.errorf(it.line, "jump target %#04x out of range from %#04x (disp %d)", target, it.addr, disp)
			return
		}
		inst.Disp = int8(disp)
	case r8.FmtU:
		if !want(2) {
			return
		}
		var ok1, ok2 bool
		inst.Rt, ok1 = a.reg(it, 0)
		inst.Rs1, ok2 = a.reg(it, 1)
		if !ok1 || !ok2 {
			return
		}
	case r8.FmtS:
		switch op {
		case r8.RTS, r8.NOP, r8.HALT:
			if !want(0) {
				return
			}
		case r8.PUSH, r8.LDSP, r8.JMPR, r8.JSRR:
			if !want(1) {
				return
			}
			rs, ok := a.reg(it, 0)
			if !ok {
				return
			}
			inst.Rs1 = rs
		case r8.POP, r8.RDSP:
			if !want(1) {
				return
			}
			rt, ok := a.reg(it, 0)
			if !ok {
				return
			}
			inst.Rt = rt
		}
	}
	w, err := inst.Encode()
	if err != nil {
		a.errorf(it.line, "%v", err)
		return
	}
	a.put(w)
}

func (a *assembler) reg(it *item, idx int) (int, bool) {
	if idx >= len(it.args) {
		a.errorf(it.line, "%s: missing register operand %d", it.mnem, idx+1)
		return 0, false
	}
	s := strings.ToUpper(it.args[idx])
	if !strings.HasPrefix(s, "R") {
		a.errorf(it.line, "%s: operand %q is not a register", it.mnem, it.args[idx])
		return 0, false
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n > 15 {
		a.errorf(it.line, "%s: bad register %q", it.mnem, it.args[idx])
		return 0, false
	}
	return n, true
}

func (a *assembler) evalArg(it *item, idx int, what string) (uint16, bool) {
	if idx >= len(it.args) {
		a.errorf(it.line, "%s: missing %s operand", it.mnem, what)
		return 0, false
	}
	return a.eval(it.line, it.args[idx])
}

// eval computes a +/- expression over numbers and symbols. Its terms
// are slices of expr between the signs outside character literals.
func (a *assembler) eval(line int, expr string) (uint16, bool) {
	expr = strings.TrimSpace(expr)
	if expr == "" {
		a.errorf(line, "empty expression")
		return 0, false
	}
	total, sign, start := 0, 1, 0
	add := func(end int) bool {
		s := unblank(expr[start:end])
		if s == "" {
			a.errorf(line, "malformed expression %q", expr)
			return false
		}
		v, ok := a.term(line, s)
		if !ok {
			return false
		}
		total += sign * int(v)
		return true
	}
	inQuote := false
	for i := 0; i < len(expr); i++ {
		switch c := expr[i]; {
		case c == '\'':
			inQuote = !inQuote
		case inQuote:
			// Spaces and signs inside a character literal are data.
		case c == '-' && i == 0:
			sign, start = -1, 1
		case c == '+' || c == '-':
			if !add(i) {
				return 0, false
			}
			sign, start = 1, i+1
			if c == '-' {
				sign = -1
			}
		}
	}
	if !add(len(expr)) {
		return 0, false
	}
	return uint16(total), true
}

// unblank drops the spaces and tabs outside character literals from
// one term of an expression, so "TO P" reads as TOP. Only a blank
// inside a term costs an allocation.
func unblank(s string) string {
	s = strings.Trim(s, " \t")
	var b []byte
	inQuote := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '\'' {
			inQuote = !inQuote
		} else if !inQuote && (c == ' ' || c == '\t') {
			if b == nil {
				b = []byte(s[:i])
			}
			continue
		}
		if b != nil {
			b = append(b, c)
		}
	}
	if b == nil {
		return s
	}
	return string(b)
}

func (a *assembler) term(line int, s string) (uint16, bool) {
	if len(s) >= 3 && s[0] == '\'' && s[len(s)-1] == '\'' {
		body, err := strconv.Unquote(s)
		if err != nil || len(body) != 1 {
			a.errorf(line, "bad character literal %s", s)
			return 0, false
		}
		return uint16(body[0]), true
	}
	if s[0] >= '0' && s[0] <= '9' { // no other token parses as a number
		if v, err := strconv.ParseUint(strings.ToLower(s), 0, 17); err == nil {
			return uint16(v), true
		}
	}
	if v, ok := a.symbols[s]; ok {
		return v, true
	}
	a.errorf(line, "undefined symbol %q", s)
	return 0, false
}
