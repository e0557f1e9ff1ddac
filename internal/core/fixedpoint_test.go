package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/noc"
	"repro/internal/procip"
	"repro/internal/r8"
	"repro/internal/sim"
)

// procState is what the fixed-point differentials compare of one
// Processor IP: the whole core (PC, registers, flags, SP, counters),
// its banks' access counters and its control logic's counters.
type procState struct {
	CPU           r8.CPU
	Reads, Writes uint64
	Stats         procip.Stats
}

// sysState is a system's observable outcome.
type sysState struct {
	Cycle  uint64
	Procs  []procState
	Output []string
}

func stateOf(s *System) sysState {
	st := sysState{Cycle: s.Clk.Cycle()}
	for id := 1; id <= len(s.Procs); id++ {
		p := s.Proc(id)
		cpu := *p.CPU()
		b := p.Banks()
		st.Procs = append(st.Procs, procState{cpu, b.Reads, b.Writes, p.Stats()})
		st.Output = append(st.Output, s.Output(id))
	}
	return st
}

// buildCounting makes cfg's system under kernel k. The counter it
// returns grows by one for each running processor that reports Idle
// after an executed cycle: a core asleep at a fixed point.
func buildCounting(t *testing.T, cfg Config, k sim.Kernel) (*System, *int) {
	t.Helper()
	cfg.Kernel = k
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sleeps := new(int)
	s.Clk.Probe(func(uint64) {
		for _, p := range s.Procs {
			if p.Active() && !p.Halted() && p.Idle() {
				*sleeps++
			}
		}
	})
	if err := s.Boot(); err != nil {
		t.Fatal(err)
	}
	return s, sleeps
}

// matchDense runs flow under every kernel and requires each outcome to
// equal the dense kernel's. Dense evaluates every component every cycle,
// so its cores never sleep and never catch up: it is the oracle. The
// default kernel must have slept a core at least once, or the
// comparison proves nothing.
func matchDense(t *testing.T, flow func(t *testing.T, k sim.Kernel) (sysState, int)) {
	t.Helper()
	want, _ := flow(t, "dense")
	for _, k := range []sim.Kernel{"nowarp", ""} {
		got, sleeps := flow(t, k)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("kernel %q diverges from dense:\n  dense %+v\n  got   %+v", k, want, got)
		}
		if k == "" && sleeps == 0 {
			t.Errorf("no processor slept under the default kernel")
		}
	}
}

// TestFixedPointWaitStallsPingPong is an E9-style ping-pong with a long
// compute between notifies: P1 sleeps in its wait while P2 computes,
// and P2 sleeps in its wait while P1 does.
func TestFixedPointWaitStallsPingPong(t *testing.T) {
	const p1 = `
		LDI R5, 3
		CLR R1
		LDI R3, 2
	loop:	LDI R2, 0xFFFD
		ST R3, R1, R2    ; notify processor 2
		LDI R2, 0xFFFE
		ST R3, R1, R2    ; wait for processor 2
		LDI R4, 500
	spin:	DEC R4
		JMPNZ spin
		DEC R5
		JMPNZ loop
		LDI R2, 0xFFFF
		LDI R4, 'A'
		ST R4, R1, R2
		HALT`
	const p2 = `
		LDI R5, 3
		CLR R1
		LDI R3, 1
	loop:	LDI R2, 0xFFFE
		ST R3, R1, R2    ; wait for processor 1
		LDI R4, 3000
	spin:	DEC R4
		JMPNZ spin       ; a long compute between notifies
		LDI R2, 0xFFFD
		ST R3, R1, R2    ; notify processor 1
		DEC R5
		JMPNZ loop
		LDI R2, 0xFFFF
		LDI R4, 'B'
		ST R4, R1, R2
		HALT`
	matchDense(t, func(t *testing.T, k sim.Kernel) (sysState, int) {
		s, sleeps := buildCounting(t, Default(), k)
		for id, src := range []string{p1, p2} {
			if _, err := s.LoadProgramDirect(src, id+1); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range []int{2, 1} {
			if err := s.Activate(id); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.RunUntilHalted(1_000_000, 1, 2); err != nil {
			t.Fatal(err)
		}
		if err := s.DrainIO(1_000_000); err != nil {
			t.Fatal(err)
		}
		st := stateOf(s)
		if st.Output[0] != "A" || st.Output[1] != "B" || st.Procs[0].Stats.WaitsBlocked != 3 {
			t.Fatalf("kernel %q: ping-pong went wrong: %+v", k, st)
		}
		return st, *sleeps
	})
}

// TestSeaOfProcessorsCrossKernel runs E12's reduction (internal/
// experiments) on the 4x4 mesh of 14 processors, with 1 and with all 14
// active, under every kernel. Every processor's core and bank counters
// and the elapsed cycles must equal dense's, and dense's elapsed cycles
// the pinned report's E12 rows. Here plans commit on 14 cores at once,
// at the planSpan bound and at HALT.
func TestSeaOfProcessorsCrossKernel(t *testing.T) {
	const totalWork = 840
	for _, tc := range []struct {
		procs   int
		elapsed uint64
	}{{1, 12_969}, {14, 5_498}} {
		chunk := totalWork / tc.procs
		src := fmt.Sprintf(`
			.equ N, %d
			CLR R0
			CLR R1           ; sum
			LDI R2, data
			CLR R3           ; i
		loop:	LD R4, R2, R3
			ADD R1, R1, R4
			INC R3
			LDI R5, N
			SUB R6, R3, R5
			JMPNZ loop
			LDI R7, 0x0100
			ST R1, R7, R0
			HALT
		data:	.space %d`, chunk, chunk)
		var dense uint64
		matchDense(t, func(t *testing.T, k sim.Kernel) (sysState, int) {
			cfg, err := Scaled(4, 4, 14, 1)
			if err != nil {
				t.Fatal(err)
			}
			s, sleeps := buildCounting(t, cfg, k)
			ids := make([]int, tc.procs)
			for i := range ids {
				ids[i] = i + 1
			}
			prog, err := s.LoadProgramDirect(src, ids...)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range ids {
				for j := 0; j < chunk; j++ {
					s.Proc(id).Banks().Write(prog.Symbols["data"]+uint16(j), 1)
				}
			}
			start := s.Clk.Cycle()
			for _, id := range ids {
				if err := s.Activate(id); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.RunUntilHalted(50_000_000, ids...); err != nil {
				t.Fatal(err)
			}
			elapsed := s.Clk.Cycle() - start
			if k == "dense" {
				dense = elapsed
				if elapsed != tc.elapsed {
					t.Errorf("%d processors: dense ran %d cycles, the report pins %d", tc.procs, elapsed, tc.elapsed)
				}
			} else if elapsed != dense {
				t.Errorf("%d processors: kernel %q ran %d cycles, dense %d", tc.procs, k, elapsed, dense)
			}
			st := stateOf(s)
			for _, id := range ids {
				if got := s.Proc(id).Banks().Read(0x0100); got != uint16(chunk) {
					t.Fatalf("%d processors, kernel %q: P%d sum = %d, want %d", tc.procs, k, id, got, chunk)
				}
			}
			return st, *sleeps
		})
	}
}

// TestFixedPointLateScanfAndRemoteRead stalls P1 on a scanf the host
// answers 50k cycles late, then on a read through the remote-memory
// window.
func TestFixedPointLateScanfAndRemoteRead(t *testing.T) {
	const src = `
		LDI R1, 0xFFFF
		CLR R0
		LD R2, R1, R0      ; scanf, answered late
		LDI R3, 2053
		LD R4, R3, R0      ; remote memory word 5
		ADD R2, R2, R4
		ST R2, R1, R0      ; printf
		HALT`
	matchDense(t, func(t *testing.T, k sim.Kernel) (sysState, int) {
		s, sleeps := buildCounting(t, Default(), k)
		if err := s.Host.WriteMemory(noc.Addr{X: 1, Y: 1}, 5, []uint16{0x21}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.LoadProgram(1, src); err != nil {
			t.Fatal(err)
		}
		if err := s.Activate(1); err != nil {
			t.Fatal(err)
		}
		s.Clk.Run(50_000)
		if p := s.Proc(1); !p.Idle() || p.Halted() {
			t.Fatalf("kernel %q: P1 is not asleep on its scanf", k)
		}
		if err := s.Host.SendScanf(s.Proc(1).Addr(), 0x20); err != nil {
			t.Fatal(err)
		}
		if err := s.RunUntilHalted(1_000_000, 1); err != nil {
			t.Fatal(err)
		}
		if err := s.DrainIO(1_000_000); err != nil {
			t.Fatal(err)
		}
		st := stateOf(s)
		if st.Output[0] != "A" {
			t.Fatalf("kernel %q: output %q, want A", k, st.Output[0])
		}
		return st, *sleeps
	})
}

// TestRunUntilHaltedAfterSerialDrainCrossKernel: at 115200 baud the
// core halts before Host.SendScanf's drain returns, because the Serial
// IP samples the stop bit half a bit before the host's transmitter goes
// idle. RunUntilHalted must then return one cycle later under every
// kernel, not at the next timer.
func TestRunUntilHaltedAfterSerialDrainCrossKernel(t *testing.T) {
	const src = `
		LDI R1, 0xFFFF
		CLR R0
		LD R2, R1, R0      ; scanf
		ST R2, R1, R0      ; printf
		LDI R3, 2048
		LD R4, R3, R0      ; remote read
		HALT`
	cfg := Default()
	cfg.SerialDiv = 434
	matchDense(t, func(t *testing.T, k sim.Kernel) (sysState, int) {
		s, sleeps := buildCounting(t, cfg, k)
		if _, err := s.LoadProgram(1, src); err != nil {
			t.Fatal(err)
		}
		if err := s.Activate(1); err != nil {
			t.Fatal(err)
		}
		s.Clk.Run(1000)
		if err := s.Host.SendScanf(s.Proc(1).Addr(), 'x'); err != nil {
			t.Fatal(err)
		}
		if !s.Proc(1).Halted() {
			t.Fatalf("kernel %q: the core has not halted by the end of the scanf drain", k)
		}
		before := s.Clk.Cycle()
		if err := s.RunUntilHalted(5_000_000, 1); err != nil {
			t.Fatal(err)
		}
		if got := s.Clk.Cycle(); got != before+1 {
			t.Errorf("kernel %q: RunUntilHalted returned at cycle %d, want %d", k, got, before+1)
		}
		return stateOf(s), *sleeps
	})
}

// TestDrainIOWaitsForRunningProcessor: a processor asleep in a poll
// loop still runs, so DrainIO must spend its whole budget, exactly,
// under every kernel.
func TestDrainIOWaitsForRunningProcessor(t *testing.T) {
	const budget = 300_000
	matchDense(t, func(t *testing.T, k sim.Kernel) (sysState, int) {
		s, sleeps := buildCounting(t, Default(), k)
		if _, err := s.LoadProgram(1, `
	poll:	LDI R1, 0x0100
		CLR R0
		LD R2, R1, R0
		JMP poll`); err != nil {
			t.Fatal(err)
		}
		if err := s.Activate(1); err != nil {
			t.Fatal(err)
		}
		start := s.Clk.Cycle()
		err := s.DrainIO(budget)
		if want := fmt.Sprintf("sim: watchdog timeout: not quiescent after %d cycles", budget); !errors.Is(err, sim.ErrTimeout) || err.Error() != want {
			t.Errorf("kernel %q: DrainIO = %v, want %q", k, err, want)
		}
		if got := s.Clk.Cycle(); got != start+budget {
			t.Errorf("kernel %q: DrainIO returned at cycle %d, want %d", k, got, start+budget)
		}
		return stateOf(s), *sleeps
	})
}

// TestDrainIOReturnsAtOnceWhenSettled: like RunUntilQuiescent, DrainIO
// checks before its first step.
func TestDrainIOReturnsAtOnceWhenSettled(t *testing.T) {
	s := boot(t)
	if err := s.DrainIO(1_000_000); err != nil {
		t.Fatal(err)
	}
	start := s.Clk.Cycle()
	if err := s.DrainIO(1_000_000); err != nil {
		t.Fatal(err)
	}
	if s.Clk.Cycle() != start {
		t.Errorf("a settled system ran %d cycles", s.Clk.Cycle()-start)
	}
}
