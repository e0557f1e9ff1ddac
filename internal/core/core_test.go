package core

import (
	"strings"
	"testing"

	"repro/internal/noc"
	"repro/internal/rcc"
	"repro/internal/sim"
)

// boot builds and synchronizes the Figure 1 system.
func boot(t testing.TB) *System {
	t.Helper()
	s, err := New(Default())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Boot(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBootAutobaud(t *testing.T) {
	s := boot(t)
	if !s.Serial.Synchronized() {
		t.Fatal("serial IP not synchronized after Boot")
	}
	if got := s.Serial.Baud(); got != 16 {
		t.Errorf("detected divisor = %d, want 16", got)
	}
}

func TestAutobaudTracksHostRate(t *testing.T) {
	for _, div := range []int{8, 16, 32, 48} {
		cfg := Default()
		cfg.SerialDiv = div
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Boot(); err != nil {
			t.Fatalf("div %d: %v", div, err)
		}
		if got := s.Serial.Baud(); got != div {
			t.Errorf("div %d: detected %d", div, got)
		}
	}
}

// TestBootTiming pins the cycles at which Boot and a following
// one-word WriteMemory return, under every kernel. The sync byte's
// burst ends at cycle 1+10·div and Boot returns 4·div-1 cycles later,
// at 14·div, so the write's seven-byte frame starts four bit periods
// after the sync byte's stop bit; it returns when the frame's last bit
// ends, 70·div cycles on.
func TestBootTiming(t *testing.T) {
	for _, c := range []struct {
		div         int
		boot, write uint64
	}{{16, 224, 1345}, {434, 6076, 36457}} {
		for _, k := range []sim.Kernel{"", "nowarp", "dense"} {
			cfg := Default()
			cfg.SerialDiv, cfg.Kernel = c.div, k
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Boot(); err != nil {
				t.Fatal(err)
			}
			boot := s.Clk.Cycle()
			if err := s.Host.WriteMemory(s.Proc(1).Addr(), 0x10, []uint16{0xBEEF}); err != nil {
				t.Fatal(err)
			}
			if boot != c.boot || s.Clk.Cycle() != c.write {
				t.Errorf("div %d, kernel %q: Boot returned at cycle %d and WriteMemory at %d, want %d and %d",
					c.div, k, boot, s.Clk.Cycle(), c.boot, c.write)
			}
		}
	}
}

func TestLoadRunPrintf(t *testing.T) {
	s := boot(t)
	src := `
		LDI R1, 0xFFFF
		CLR R0
		LDI R2, 'H'
		ST R2, R1, R0
		LDI R2, 'I'
		ST R2, R1, R0
		HALT
	`
	if _, err := s.LoadProgram(1, src); err != nil {
		t.Fatal(err)
	}
	if err := s.Activate(1); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilHalted(2_000_000, 1); err != nil {
		t.Fatal(err)
	}
	// Drain the serial pipe so the printf frames reach the host.
	s.Clk.Run(20000)
	if got := s.Output(1); got != "HI" {
		t.Errorf("output = %q, want \"HI\"", got)
	}
	if s.Proc(1).CPU().Err() != nil {
		t.Errorf("CPU error: %v", s.Proc(1).CPU().Err())
	}
}

func TestHostReadWriteRemoteMemory(t *testing.T) {
	s := boot(t)
	memAddr := noc.Addr{X: 1, Y: 1}
	data := []uint16{0xDEAD, 0xBEEF, 0x0042}
	if err := s.Host.WriteMemory(memAddr, 0x0020, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadMemory(memAddr, 0x0020, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range data {
		if got[i] != w {
			t.Errorf("word %d = %#x, want %#x", i, got[i], w)
		}
	}
}

func TestHostReadsProcessorLocalMemory(t *testing.T) {
	// The Figure 9 example: "00 01 01 00 20" reads one word at 0x0020
	// of P1's local memory.
	s := boot(t)
	s.Proc(1).Banks().Write(0x0020, 0x1234)
	got, err := s.ReadMemory(s.Proc(1).Addr(), 0x0020, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x1234 {
		t.Errorf("read = %#x, want 0x1234", got[0])
	}
}

func TestHostLargeTransferChunks(t *testing.T) {
	// 300 words needs chunking both on write and read.
	s := boot(t)
	memAddr := noc.Addr{X: 1, Y: 1}
	data := make([]uint16, 300)
	for i := range data {
		data[i] = uint16(i * 3)
	}
	if err := s.Host.WriteMemory(memAddr, 0, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadMemory(memAddr, 0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("word %d = %#x, want %#x", i, got[i], data[i])
		}
	}
}

func TestScanfRoundTrip(t *testing.T) {
	s := boot(t)
	s.Host.ScanfData = func(src noc.Addr) uint16 { return 41 }
	src := `
		LDI R1, 0xFFFF
		CLR R0
		LD R2, R1, R0    ; scanf
		INC R2
		LDI R3, 0x0100
		ST R2, R3, R0
		HALT
	`
	if _, err := s.LoadProgram(1, src); err != nil {
		t.Fatal(err)
	}
	if err := s.Activate(1); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilHalted(5_000_000, 1); err != nil {
		t.Fatal(err)
	}
	if got := s.Proc(1).Banks().Read(0x0100); got != 42 {
		t.Errorf("mem[0x100] = %d, want 42", got)
	}
	if s.Proc(1).Stats().Scanfs != 1 {
		t.Errorf("scanf count = %d", s.Proc(1).Stats().Scanfs)
	}
}

func TestRemoteMemoryWindow(t *testing.T) {
	// P1 stores/loads through the [2048,3072) window, which maps to the
	// remote Memory IP (Figure 6).
	s := boot(t)
	src := `
		LDI R1, 0x0800   ; 2048: remote memory window
		CLR R0
		LDI R2, 0xBEEF
		ST R2, R1, R0    ; remote[0] = 0xBEEF
		INC R1
		LDI R3, 0x1234
		ST R3, R1, R0    ; remote[1] = 0x1234
		DEC R1
		LD R4, R1, R0    ; read back remote[0]
		LDI R5, 0x0100
		ST R4, R5, R0
		HALT
	`
	if _, err := s.LoadProgramDirect(src, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Activate(1); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilHalted(2_000_000, 1); err != nil {
		t.Fatal(err)
	}
	if got := s.Mems[0].Banks().Read(0); got != 0xBEEF {
		t.Errorf("remote[0] = %#x, want 0xBEEF", got)
	}
	if got := s.Mems[0].Banks().Read(1); got != 0x1234 {
		t.Errorf("remote[1] = %#x, want 0x1234", got)
	}
	if got := s.Proc(1).Banks().Read(0x0100); got != 0xBEEF {
		t.Errorf("read-back = %#x, want 0xBEEF", got)
	}
	st := s.Proc(1).Stats()
	if st.RemoteWrites != 2 || st.RemoteReads != 1 {
		t.Errorf("remote ops: %+v", st)
	}
}

func TestOtherProcessorWindow(t *testing.T) {
	// P1's [1024,2048) window is P2's local memory (NUMA access).
	s := boot(t)
	src := `
		LDI R1, 0x0400   ; 1024: other-processor window
		CLR R0
		LDI R2, 0x00AB
		ST R2, R1, R0    ; P2.mem[0] = 0xAB
		LD R3, R1, R0    ; read it back through the NoC
		LDI R4, 0x0100
		ST R3, R4, R0
		HALT
	`
	if _, err := s.LoadProgramDirect(src, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Activate(1); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilHalted(2_000_000, 1); err != nil {
		t.Fatal(err)
	}
	if got := s.Proc(2).Banks().Read(0); got != 0x00AB {
		t.Errorf("P2.mem[0] = %#x, want 0xAB", got)
	}
	if got := s.Proc(1).Banks().Read(0x0100); got != 0x00AB {
		t.Errorf("P1 read-back = %#x, want 0xAB", got)
	}
}

// waitNotifySources builds the paper's §2.4 example: P1 blocks on a
// wait for processor 2; P2 notifies processor 1.
const waiterSrc = `
	LDI R2, 0xFFFE   ; wait address (paper example register use)
	CLR R1
	LDI R3, 2        ; wait for processor 2
	ST R3, R1, R2    ; blocks here
	LDI R4, 0x0100
	LDI R5, 0x00AA
	CLR R0
	ST R5, R4, R0    ; marker written only after wake-up
	HALT
`

const notifierSrc = `
	LDI R6, 100      ; work for a while first
d:	DEC R6
	JMPNZ d
	LDI R2, 0xFFFD   ; notify address
	CLR R1
	LDI R3, 1        ; wake processor 1
	ST R3, R1, R2
	HALT
`

func TestWaitNotify(t *testing.T) {
	s := boot(t)
	if _, err := s.LoadProgramDirect(waiterSrc, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadProgramDirect(notifierSrc, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Activate(1); err != nil {
		t.Fatal(err)
	}
	// Let P1 reach the wait and verify it is actually blocked.
	if err := s.Clk.RunUntil(func() bool { return s.Proc(1).Waiting() }, 1_000_000); err != nil {
		t.Fatal("P1 never blocked:", err)
	}
	if s.Proc(1).Halted() {
		t.Fatal("P1 ran past the wait")
	}
	if err := s.Activate(2); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilHalted(2_000_000, 1, 2); err != nil {
		t.Fatal(err)
	}
	if got := s.Proc(1).Banks().Read(0x0100); got != 0x00AA {
		t.Errorf("marker = %#x, want 0xAA", got)
	}
	st1, st2 := s.Proc(1).Stats(), s.Proc(2).Stats()
	if st1.WaitsBlocked != 1 || st1.NotifiesRecv != 1 {
		t.Errorf("P1 stats: %+v", st1)
	}
	if st2.Notifies != 1 || st2.WaitRegsRecv != 1 {
		t.Errorf("P2 stats: %+v", st2)
	}
}

func TestNotifyBeforeWaitIsNotLost(t *testing.T) {
	// Reversed race: the notify lands before P1 executes its wait; the
	// pending-notify count must absorb it (procip's wait).
	s := boot(t)
	if _, err := s.LoadProgramDirect(`
		LDI R6, 250      ; dawdle so the notify arrives first
d:	DEC R6
		JMPNZ d
	`+waiterSrc, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadProgramDirect(`
		LDI R2, 0xFFFD
		CLR R1
		LDI R3, 1
		ST R3, R1, R2    ; notify immediately
		HALT
	`, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Activate(2); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilHalted(1_000_000, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Activate(1); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilHalted(2_000_000, 1); err != nil {
		t.Fatal(err)
	}
	if got := s.Proc(1).Banks().Read(0x0100); got != 0x00AA {
		t.Errorf("marker = %#x, want 0xAA", got)
	}
	if s.Proc(1).Stats().WaitsBlocked != 0 {
		t.Error("P1 blocked although the notify was already pending")
	}
}

func TestActivateRestartsHaltedProcessor(t *testing.T) {
	s := boot(t)
	src := `
		LDI R1, 0x0100
		CLR R0
		LD R2, R1, R0
		INC R2
		ST R2, R1, R0
		HALT
	`
	if _, err := s.LoadProgramDirect(src, 1); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 3; round++ {
		if err := s.Activate(1); err != nil {
			t.Fatal(err)
		}
		// The activate packet needs NoC transit time: wait for the core
		// to leave its halted state before waiting for completion.
		if err := s.Clk.RunUntil(func() bool { return !s.Proc(1).Halted() }, 100_000); err != nil {
			t.Fatalf("round %d: activation never took effect: %v", round, err)
		}
		if err := s.RunUntilHalted(1_000_000, 1); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got := s.Proc(1).Banks().Read(0x0100); got != uint16(round) {
			t.Fatalf("round %d: counter = %d", round, got)
		}
	}
}

func TestScaledSystemBuilds(t *testing.T) {
	cfg, err := Scaled(4, 4, 14, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Procs) != 14 || len(s.Mems) != 1 {
		t.Fatalf("built %d procs, %d mems", len(s.Procs), len(s.Mems))
	}
	if err := s.Boot(); err != nil {
		t.Fatal(err)
	}
	// Every processor must be reachable: poke each local memory.
	for i := 1; i <= 14; i++ {
		addr := s.Proc(i).Addr()
		if err := s.Host.WriteMemory(addr, 0x10, []uint16{uint16(i)}); err != nil {
			t.Fatalf("proc %d write: %v", i, err)
		}
	}
	for i := 1; i <= 14; i++ {
		got, err := s.ReadMemory(s.Proc(i).Addr(), 0x10, 1)
		if err != nil {
			t.Fatalf("proc %d read: %v", i, err)
		}
		if got[0] != uint16(i) {
			t.Errorf("proc %d mem = %d", i, got[0])
		}
	}
}

func TestScaledRejectsOverfullMesh(t *testing.T) {
	if _, err := Scaled(2, 2, 4, 1); err == nil {
		t.Error("overfull mesh accepted")
	}
}

func TestAssemblyErrorSurfaces(t *testing.T) {
	s := boot(t)
	_, err := s.LoadProgram(1, "BOGUS R1")
	if err == nil || !strings.Contains(err.Error(), "unknown mnemonic") {
		t.Errorf("err = %v", err)
	}
}

func TestScaledWindowMapping(t *testing.T) {
	// With three processors, each CPU's windows cover the other two
	// processors (in ID order) and then the memories. P1 writing into
	// window 2 must land in P3's local memory.
	cfg, err := Scaled(3, 3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Boot(); err != nil {
		t.Fatal(err)
	}
	src := `
		LDI R1, 0x0400   ; window 1: next processor in ID order
		CLR R0
		LDI R2, 0x0011
		ST R2, R1, R0
		LDI R1, 0x0800   ; window 2: the other processor
		LDI R2, 0x0022
		ST R2, R1, R0
		LDI R1, 0x0C00   ; window 3: the remote memory
		LDI R2, 0x0033
		ST R2, R1, R0
		HALT
	`
	if _, err := s.LoadProgramDirect(src, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Activate(1); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilHalted(2_000_000, 1); err != nil {
		t.Fatal(err)
	}
	// Posted writes may still be in flight at HALT.
	s.Clk.Run(2000)
	if got := s.Proc(2).Banks().Read(0); got != 0x0011 {
		t.Errorf("P2.mem[0] = %#x, want 0x11 (P1's window 1)", got)
	}
	if got := s.Proc(3).Banks().Read(0); got != 0x0022 {
		t.Errorf("P3.mem[0] = %#x, want 0x22 (P1's window 2)", got)
	}
	if got := s.Mems[0].Banks().Read(0); got != 0x0033 {
		t.Errorf("remote[0] = %#x, want 0x33 (P1's window 3)", got)
	}
}

func TestCompiledProgramOnSystem(t *testing.T) {
	// The R8C compiler's output must run unchanged on the full system,
	// including its intrinsics: P1 computes with getw/putc, P2 is woken
	// by a compiled notify().
	s := boot(t)
	s.Host.ScanfData = func(noc.Addr) uint16 { return 6 }
	src1 := `
	int fact(int n) {
		if (n < 2) return 1;
		return n * fact(n - 1);
	}
	int out[1] @ 0x0100;
	int main() {
		out[0] = fact(getw());   // 6! = 720
		putc('D');
		notify(2);
		return 0;
	}`
	src2 := `
	int out[1] @ 0x0100;
	int main() {
		wait(1);
		out[0] = 0x77;
		return 0;
	}`
	asm1, err := rcc.Compile(src1)
	if err != nil {
		t.Fatal(err)
	}
	asm2, err := rcc.Compile(src2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadProgramDirect(asm2, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Activate(2); err != nil {
		t.Fatal(err)
	}
	if err := s.Clk.RunUntil(func() bool { return s.Proc(2).Waiting() }, 1_000_000); err != nil {
		t.Fatal("P2 never reached its wait:", err)
	}
	if _, err := s.LoadProgramDirect(asm1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Activate(1); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilHalted(10_000_000, 1, 2); err != nil {
		t.Fatal(err)
	}
	if got := s.Proc(1).Banks().Read(0x0100); got != 720 {
		t.Errorf("6! = %d, want 720", got)
	}
	if got := s.Proc(2).Banks().Read(0x0100); got != 0x77 {
		t.Errorf("P2 marker = %#x, want 0x77", got)
	}
	s.Clk.Run(30000)
	if out := s.Output(1); out != "D" {
		t.Errorf("P1 output %q", out)
	}
}

// transcript is the observable outcome of bootTranscript's whole-stack
// run.
type transcript struct {
	cycles       uint64
	baud         int
	framesSent   uint64
	framesRecv   uint64
	framesToNoC  uint64
	framesToHost uint64
	words        [8]uint16
	output       string
}

// bootTranscript boots cfg under the given kernel, writes and reads
// back eight words of its first memory over the serial path, and runs a
// printf program on processor 1 to completion.
func bootTranscript(t *testing.T, cfg Config, kernel sim.Kernel) transcript {
	t.Helper()
	cfg.Kernel = kernel
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Boot(); err != nil {
		t.Fatal(err)
	}
	memAddr := cfg.Memories[0]
	if err := s.Host.WriteMemory(memAddr, 0, []uint16{10, 20, 30, 40, 50, 60, 70, 80}); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadMemory(memAddr, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadProgram(1, `
		LDI R1, 0xFFFF
		CLR R0
		LDI R2, 'W'
		ST R2, R1, R0
		HALT
	`); err != nil {
		t.Fatal(err)
	}
	if err := s.Activate(1); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilHalted(2_000_000, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.DrainIO(1_000_000); err != nil {
		t.Fatal(err)
	}
	tr := transcript{
		cycles:       s.Clk.Cycle(),
		baud:         s.Serial.Baud(),
		framesSent:   s.Host.FramesSent,
		framesRecv:   s.Host.FramesRecv,
		framesToNoC:  s.Serial.FramesToNoC,
		framesToHost: s.Serial.FramesToHost,
		output:       s.Output(1),
	}
	copy(tr.words[:], got)
	return tr
}

// TestTimeWarpBootTranscriptIdentical: a full serial boot — 0x55
// auto-baud, a memory write, a read round trip and a printf program —
// must produce a bit-identical transcript with time warping on, off,
// and under the dense reference kernel: same final cycle count, same
// detected baud, same frame tallies, same read-back words, same
// program output. It runs on the Figure 1 system and on a scaled 4x4
// one. This is the whole-stack differential for the time-warp kernel:
// the serial path exercises UART edge timers, the NoC path the router
// delay timers.
func TestTimeWarpBootTranscriptIdentical(t *testing.T) {
	scaled, err := Scaled(4, 4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []struct {
		name string
		cfg  Config
	}{{"fig1", Default()}, {"scaled4x4", scaled}} {
		ref := bootTranscript(t, sys.cfg, "") // the default kernel: sparse + warp
		if ref.words != [8]uint16{10, 20, 30, 40, 50, 60, 70, 80} {
			t.Fatalf("%s: read-back words wrong: %v", sys.name, ref.words)
		}
		if ref.output != "W" {
			t.Fatalf("%s: program output = %q, want W", sys.name, ref.output)
		}
		for _, k := range []sim.Kernel{"nowarp", "dense"} {
			if got := bootTranscript(t, sys.cfg, k); got != ref {
				t.Errorf("%s: %s transcript diverges:\n  warp %+v\n  got  %+v", sys.name, k, ref, got)
			}
		}
	}
}
