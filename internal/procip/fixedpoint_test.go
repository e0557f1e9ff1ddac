package procip

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/r8"
	"repro/internal/r8asm"
	"repro/internal/sim"
)

var kernels = []sim.Kernel{"dense", "nowarp", ""}

// fixedRig is rig under kernel k, with a remote Memory IP at 11 behind
// the window [2048,3072), img in the local banks, and processors 0 to 3
// played by the host endpoint, so a notify or wait sends it a packet.
func fixedRig(t *testing.T, k sim.Kernel, img []uint16) (*sim.Clock, *IP, *noc.Endpoint) {
	t.Helper()
	clk, err := sim.ParseKernel(k)
	if err != nil {
		t.Fatal(err)
	}
	net, err := noc.New(clk, noc.Defaults(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	ip, err := New(net, Config{
		Addr:     noc.Addr{X: 0, Y: 1},
		ID:       1,
		Host:     noc.Addr{X: 0, Y: 0},
		Windows:  []Window{{Lo: 2048, Hi: 3072, Target: noc.Addr{X: 1, Y: 1}}},
		ProcByID: map[uint16]noc.Addr{0: {}, 1: {}, 2: {}, 3: {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mem.NewIP(net, noc.Addr{X: 1, Y: 1}, 1024); err != nil {
		t.Fatal(err)
	}
	host, err := net.NewEndpoint(noc.Addr{X: 0, Y: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := ip.Banks().Load(img); err != nil {
		t.Fatal(err)
	}
	activate(t, clk, host, ip.Addr())
	return clk, ip, host
}

func asm(t *testing.T, src string) []uint16 {
	t.Helper()
	prog, err := r8asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	img, err := prog.Flatten(1024)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// ipState is what the differentials compare of the IP: the whole core,
// the banks' access counters, the control logic's counters and the
// clock.
type ipState struct {
	CPU           r8.CPU
	Reads, Writes uint64
	Stats         Stats
	Cycle         uint64
}

func stateOf(clk *sim.Clock, ip *IP) ipState {
	cpu := *ip.CPU()
	b := ip.Banks()
	return ipState{cpu, b.Reads, b.Writes, ip.Stats(), clk.Cycle()}
}

// TestFixedPointNeverInLoopsWithEffects runs loops that are not fixed
// points, each under every kernel. After every executed cycle, the IP
// must not hold a fixed point beyond what the loop allows, and the end
// state must equal the dense kernel's.
func TestFixedPointNeverInLoopsWithEffects(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
		// ok reports whether the IP may hold its fixed point now.
		ok func(ip *IP) bool
		// stim, when set, runs once the loop is spinning.
		stim func(t *testing.T, ip *IP, host *noc.Endpoint)
	}{
		{
			// The same state every iteration, but it stores.
			name: "store",
			src: `	LDI R1, 0x0100
				LDI R2, 7
				CLR R0
			loop:	ST R2, R1, R0
				JMP loop`,
			ok: func(*IP) bool { return false },
		},
		{
			// Reads through the remote window: each read may sleep
			// as a one-cycle stall, never as a loop.
			name: "remote-read",
			src: `	LDI R3, 2048
				CLR R0
			loop:	LD R2, R3, R0
				JMP loop`,
			ok: func(ip *IP) bool { return ip.orbit == orbit{cycles: 1} && ip.rstate == rWaitRead },
		},
		{
			// Local reads only, but a register counts down.
			name: "countdown",
			src: `	LDI R1, 0x0100
				LDI R4, 20000
				CLR R0
			loop:	LD R2, R1, R0
				DEC R4
				JMPNZ loop
				HALT`,
			ok: func(*IP) bool { return false },
		},
		{
			// SP returns to where it was, but PUSH writes.
			name: "push-pop",
			src: `	LDI R1, 9
			loop:	PUSH R1
				POP R1
				JMP loop`,
			ok: func(*IP) bool { return false },
		},
		{
			// A pure poll loop until the engine writes its flag, as
			// the last word of a long NoC write: never a fixed point
			// while the engine is busy.
			name: "engine-flag",
			src: `	LDI R1, 0x0200
				CLR R0
			poll:	LD R2, R1, R0
				ADD R2, R2, R0
				JMPZ poll
				LDI R4, 3000
			spin:	DEC R4
				JMPNZ spin
				HALT`,
			ok: func(ip *IP) bool { return !ip.eng.Busy() },
			stim: func(t *testing.T, ip *IP, host *noc.Endpoint) {
				words := make([]uint16, 100)
				words[len(words)-1] = 1
				m := &noc.Message{Svc: noc.SvcWriteMem, Addr: 0x0200 - 99, Words: words}
				if _, err := host.SendMessage(ip.Addr(), m); err != nil {
					t.Fatal(err)
				}
			},
		},
	} {
		var want ipState
		for _, k := range kernels {
			clk, ip, host := fixedRig(t, k, asm(t, tc.src))
			bad := 0
			clk.Probe(func(uint64) {
				if ip.fixed && !tc.ok(ip) {
					bad++
				}
			})
			clk.Run(2000)
			if tc.stim != nil {
				if !ip.fixed {
					t.Fatalf("%s/%q: the poll loop is not at a fixed point", tc.name, k)
				}
				tc.stim(t, ip, host)
			}
			clk.Run(40_000)
			if bad > 0 {
				t.Errorf("%s/%q: a fixed point held in %d executed cycles", tc.name, k, bad)
			}
			got := stateOf(clk, ip)
			if k == "dense" {
				want = got
			} else if got != want {
				t.Errorf("%s: kernel %q diverges from dense:\n  dense %+v\n  got   %+v", tc.name, k, want, got)
			}
		}
	}
}

// TestFixedPointPollSleepsAndCatchesUp samples a core asleep in a pure
// poll loop through CPU() every 9,973 cycles, so each sample lands at a
// different phase of the loop, then releases it through a backdoor
// write to its flag. Every sample and the end state must equal the
// dense kernel's, and under the default kernel the sleep must cost only
// a few executed steps per sample.
func TestFixedPointPollSleepsAndCatchesUp(t *testing.T) {
	const src = `	LDI R1, 0x0200
			CLR R0
		poll:	LD R2, R1, R0
			LDI R3, 1
			SUB R4, R2, R3
			JMPNZ poll
			LDI R4, 500
		spin:	DEC R4
			JMPNZ spin
			HALT`
	type run struct {
		Samples []r8.CPU
		End     ipState
	}
	var want run
	for _, k := range kernels {
		clk, ip, _ := fixedRig(t, k, asm(t, src))
		steps := 0
		clk.Probe(func(uint64) { steps++ })
		var got run
		for i := 0; i < 12; i++ {
			steps = 0
			clk.Run(9_973)
			got.Samples = append(got.Samples, *ip.CPU())
			if k == "" && i > 0 && steps > 2 {
				t.Errorf("sample %d: %d executed steps for 9,973 cycles of polling", i, steps)
			}
		}
		ip.Banks().Write(0x0200, 1)
		if err := clk.RunUntil(ip.Halted, 100_000); err != nil {
			t.Fatal(err)
		}
		got.End = stateOf(clk, ip)
		if k == "dense" {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("kernel %q diverges from dense:\n  dense %+v\n  got   %+v", k, want, got)
		}
	}
	if want.End.CPU.Retired < 12*9_973/4 {
		t.Errorf("the poll loop retired only %d instructions", want.End.CPU.Retired)
	}
}

// TestFixedPointRandomProgramsMatchDense runs random programs under
// every kernel: every instruction but HALT, jumps both ways, registers
// seeded with local addresses but for one that points at an I/O,
// synchronization or remote address. Meanwhile the host writes and
// reads the local memory over the NoC, answers scanfs, sends notifies
// and stray read returns, and writes the banks through the backdoor, at
// the same cycles under every kernel, and CPU() is sampled in between.
// Every sample, the end state, and every packet the host receives and
// change of the IP's Stats, Halted and Waiting, each at its cycle, must
// equal the dense kernel's, and some program must have slept on a plan
// and some at a fixed point.
func TestFixedPointRandomProgramsMatchDense(t *testing.T) {
	plans, fixes := 0, 0
	for i := 0; i < 40; i++ {
		p, f := runTrial(t, fmt.Sprintf("trial %d", i), randomTrial(t, sim.NewRand(uint64(1000+i))))
		plans += p
		fixes += f
	}
	if plans == 0 || fixes == 0 {
		t.Errorf("under the default kernel, running cores slept %d cycles on a plan and %d at a fixed point; want both", plans, fixes)
	}
}

// FuzzFixedPointAgree is TestFixedPointRandomProgramsMatchDense over
// trials decoded from the fuzzer's bytes (decodeTrial), any instruction
// word and register seed allowed. Its seed corpus is the test's first
// trials and planTrials.
func FuzzFixedPointAgree(f *testing.F) {
	for i := 0; i < 6; i++ {
		f.Add(randomTrial(f, sim.NewRand(uint64(1000+i))).encode())
	}
	for _, tr := range planTrials(f) {
		f.Add(tr.encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runTrial(t, "input", decodeTrial(data))
	})
}

// planTrials are three trials for a plan's stop and cancel rules. The
// program counts R3 down from 300, long enough to sleep through, then
// notifies processor 2 and prints, and loops with a count of 200. The
// first trial only samples the core; in the others a backdoor write
// replaces the countdown's backward jump with a NOP under the plan, so
// the core leaves the loop early, and in the third a backdoor read
// follows the write before the next cycle.
func planTrials(tb testing.TB) []trial {
	var tr trial
	tr.regs[1], tr.regs[2], tr.regs[3], tr.regs[4] = NotifyAddr, 2, 300, IOAddr
	for i, inst := range []r8.Inst{
		{Op: r8.SUBI, Rt: 3, Imm: 1},
		{Op: r8.JMPNZ, Disp: -2},
		{Op: r8.ST, Rt: 2, Rs1: 1, Rs2: 0}, // notify 2
		{Op: r8.ST, Rt: 2, Rs1: 4, Rs2: 0}, // printf
		{Op: r8.LDL, Rt: 3, Imm: 200},
		{Op: r8.JMP, Disp: -6},
	} {
		w, err := inst.Encode()
		if err != nil {
			tb.Fatal(err)
		}
		tr.insts[i] = w
	}
	for i := 0; i < 6; i++ {
		tr.stims = append(tr.stims, stim{gap: 700, kind: 6})
	}
	nop, err := r8.Inst{Op: r8.NOP}.Encode()
	if err != nil {
		tb.Fatal(err)
	}
	trials := []trial{tr}
	for _, kind := range []int{5, 7} {
		cut := tr
		cut.stims = append([]stim{{gap: 300, kind: kind, addr: 32 + 1, word: nop}}, tr.stims...)
		trials = append(trials, cut)
	}
	return trials
}

// trial is one program for the random differentials and what the host
// does while it runs. The program is the sixteen register seeds, loaded
// by LDH/LDL pairs from address 0, then 32 instruction words.
type trial struct {
	regs  [16]uint16
	insts [32]uint16
	stims []stim
}

// stim is one host action, gap cycles after the previous one: kind 0
// writes two words at addr over the NoC, 1 reads two, 2 answers a scanf
// with word, 3 notifies as processor word%4, 4 sends a stray read
// return, 5 writes word at addr through the backdoor, 6 does nothing
// and 7 writes through the backdoor and reads the word back through a
// second Banks call. CPU() is sampled after each.
type stim struct {
	gap        uint64
	kind       int
	addr, word uint16
}

// Trial encoding limits: the decoder folds each field into its range.
const (
	trialProgBytes = 2 * (16 + 32)
	stimBytes      = 7
	maxStims       = 12
	maxGap         = 3000
	stimKinds      = 8
	randomKinds    = 7 // randomTrial's kinds, drawn before kind 7 existed
)

// randomTrial draws the random test's trial from rng: every
// instruction but HALT, registers seeded with local addresses but R5,
// which holds an I/O, synchronization or remote address.
func randomTrial(tb testing.TB, rng *sim.Rand) trial {
	specials := []uint16{IOAddr, WaitAddr, NotifyAddr, 2048}
	var tr trial
	for r := range tr.regs {
		tr.regs[r] = uint16(rng.Intn(512))
		if r == 5 {
			tr.regs[r] = specials[rng.Intn(len(specials))]
		}
	}
	for i := range tr.insts {
		op := r8.Op(rng.Intn(r8.NumOps))
		if op == r8.HALT {
			op = r8.JMP
		}
		w, err := r8.Inst{Op: op, Rt: rng.Intn(16), Rs1: rng.Intn(16), Rs2: rng.Intn(16),
			Imm: uint8(rng.Intn(256)), Disp: int8(rng.Intn(16) - 8)}.Encode()
		if err != nil {
			tb.Fatal(err)
		}
		tr.insts[i] = w
	}
	for i := 0; i < maxStims; i++ {
		tr.stims = append(tr.stims, stim{uint64(1 + rng.Intn(maxGap)), rng.Intn(randomKinds), uint16(rng.Intn(1024)), uint16(rng.Intn(65536))})
	}
	return tr
}

// decodeTrial reads a trial from data, zero-padded to the program's 96
// bytes: the register seeds and instruction words as big-endian
// halfwords, then up to maxStims stimuli of stimBytes each (gap-1,
// kind, addr and word, each folded into its range).
func decodeTrial(data []byte) trial {
	var tr trial
	at := func(i int) uint16 {
		if i+1 < len(data) {
			return uint16(data[i])<<8 | uint16(data[i+1])
		}
		return 0
	}
	for r := range tr.regs {
		tr.regs[r] = at(2 * r)
	}
	for i := range tr.insts {
		tr.insts[i] = at(32 + 2*i)
	}
	for i := trialProgBytes; i+stimBytes <= len(data) && len(tr.stims) < maxStims; i += stimBytes {
		tr.stims = append(tr.stims, stim{uint64(1 + at(i)%maxGap), int(data[i+2]) % stimKinds, at(i+3) % 1024, at(i + 5)})
	}
	return tr
}

// encode is decodeTrial's inverse over the ranges randomTrial draws.
func (tr trial) encode() []byte {
	var b []byte
	put := func(v uint16) { b = append(b, byte(v>>8), byte(v)) }
	for _, v := range tr.regs {
		put(v)
	}
	for _, w := range tr.insts {
		put(w)
	}
	for _, st := range tr.stims {
		put(uint16(st.gap - 1))
		b = append(b, byte(st.kind))
		put(st.addr)
		put(st.word)
	}
	return b
}

// image is the trial's program as a local-memory image.
func (tr trial) image(tb testing.TB) []uint16 {
	var img []uint16
	for r, v := range tr.regs {
		for _, inst := range []r8.Inst{{Op: r8.LDH, Rt: r, Imm: uint8(v >> 8)}, {Op: r8.LDL, Rt: r, Imm: uint8(v)}} {
			w, err := inst.Encode()
			if err != nil {
				tb.Fatal(err)
			}
			img = append(img, w)
		}
	}
	return append(img, tr.insts[:]...)
}

// arrival is a packet the host received and the cycle it arrived.
type arrival struct {
	Cycle uint64
	Msg   *noc.Message
	Err   error
}

// seen is what the IP shows without catching up, from the cycle it
// took these values.
type seen struct {
	Cycle           uint64
	Stats           Stats
	Halted, Waiting bool
}

// runTrial runs tr on fixedRig under every kernel. Every CPU() sample,
// the end state, every packet the host receives and every change of
// Stats, Halted and Waiting, each with its cycle, must equal the dense
// kernel's. It returns how many executed cycles of the default kernel
// ended with the running core asleep on a plan, and how many with it
// asleep at a fixed point.
func runTrial(t *testing.T, name string, tr trial) (plans, fixes int) {
	type run struct {
		Samples []r8.CPU
		End     ipState
		Host    []arrival
		Seen    []seen
	}
	var want run
	for _, k := range kernels {
		clk, ip, host := fixedRig(t, k, tr.image(t))
		var got run
		clk.Probe(func(cycle uint64) {
			for {
				m, ok, err := host.RecvMessage()
				if !ok {
					break
				}
				got.Host = append(got.Host, arrival{cycle, m, err})
			}
			now := seen{cycle, ip.Stats(), ip.Halted(), ip.Waiting()}
			if n := len(got.Seen); n == 0 || now.Stats != got.Seen[n-1].Stats ||
				now.Halted != got.Seen[n-1].Halted || now.Waiting != got.Seen[n-1].Waiting {
				got.Seen = append(got.Seen, now)
			}
			if k == "" && ip.Active() && !ip.Halted() && ip.Idle() {
				if ip.fixed {
					fixes++
				} else {
					plans++
				}
			}
		})
		send := func(m *noc.Message) {
			if _, err := host.SendMessage(ip.Addr(), m); err != nil {
				t.Fatal(err)
			}
		}
		for _, st := range tr.stims {
			clk.Run(st.gap)
			switch st.kind {
			case 0:
				send(&noc.Message{Svc: noc.SvcWriteMem, Addr: st.addr, Words: []uint16{st.word, st.word ^ 1}})
			case 1:
				send(&noc.Message{Svc: noc.SvcReadMem, Addr: st.addr, Count: 2})
			case 2:
				send(&noc.Message{Svc: noc.SvcScanfReturn, Words: []uint16{st.word}})
			case 3:
				send(&noc.Message{Svc: noc.SvcNotify, Proc: st.word % 4})
			case 4:
				send(&noc.Message{Svc: noc.SvcReadReturn, Words: []uint16{st.word}})
			case 5:
				ip.Banks().Write(st.addr, st.word)
			case 7:
				ip.Banks().Write(st.addr, st.word)
				ip.Banks().Read(st.addr)
			}
			got.Samples = append(got.Samples, *ip.CPU())
		}
		clk.Run(3000)
		got.End = stateOf(clk, ip)
		if k == "dense" {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: kernel %q diverges from dense:\n  dense %+v\n  got   %+v", name, k, want, got)
		}
	}
	return plans, fixes
}
