package procip

import (
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
// the window [2048,3072) and img in the local banks.
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
		Addr:    noc.Addr{X: 0, Y: 1},
		ID:      1,
		Host:    noc.Addr{X: 0, Y: 0},
		Windows: []Window{{Lo: 2048, Hi: 3072, Target: noc.Addr{X: 1, Y: 1}}},
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
// Every sample and end state must equal the dense kernel's, and some
// program must have slept.
func TestFixedPointRandomProgramsMatchDense(t *testing.T) {
	specials := []uint16{IOAddr, WaitAddr, NotifyAddr, 2048}
	slept := 0
	for trial := 0; trial < 40; trial++ {
		rng := sim.NewRand(uint64(1000 + trial))
		var img []uint16
		for r := 0; r < 16; r++ {
			v := uint16(rng.Intn(512))
			if r == 5 {
				v = specials[rng.Intn(len(specials))]
			}
			for _, inst := range []r8.Inst{{Op: r8.LDH, Rt: r, Imm: uint8(v >> 8)}, {Op: r8.LDL, Rt: r, Imm: uint8(v)}} {
				w, _ := inst.Encode()
				img = append(img, w)
			}
		}
		for i := 0; i < 32; i++ {
			op := r8.Op(rng.Intn(r8.NumOps))
			if op == r8.HALT {
				op = r8.JMP
			}
			w, err := r8.Inst{Op: op, Rt: rng.Intn(16), Rs1: rng.Intn(16), Rs2: rng.Intn(16),
				Imm: uint8(rng.Intn(256)), Disp: int8(rng.Intn(16) - 8)}.Encode()
			if err != nil {
				t.Fatal(err)
			}
			img = append(img, w)
		}
		type stim struct {
			gap        uint64
			kind       int
			addr, word uint16
		}
		var stims []stim
		for i := 0; i < 12; i++ {
			stims = append(stims, stim{uint64(1 + rng.Intn(3000)), rng.Intn(7), uint16(rng.Intn(1024)), uint16(rng.Intn(65536))})
		}
		type run struct {
			Samples []r8.CPU
			End     ipState
		}
		var want run
		for _, k := range kernels {
			clk, ip, host := fixedRig(t, k, img)
			clk.Probe(func(uint64) {
				if k == "" && ip.Active() && !ip.Halted() && ip.Idle() {
					slept++
				}
			})
			send := func(m *noc.Message) {
				if _, err := host.SendMessage(ip.Addr(), m); err != nil {
					t.Fatal(err)
				}
			}
			var got run
			for _, st := range stims {
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
				}
				got.Samples = append(got.Samples, *ip.CPU())
			}
			clk.Run(3000)
			got.End = stateOf(clk, ip)
			if k == "dense" {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("trial %d: kernel %q diverges from dense:\n  dense %+v\n  got   %+v", trial, k, want.End, got.End)
			}
		}
	}
	if slept == 0 {
		t.Error("no random program slept under the default kernel")
	}
}
