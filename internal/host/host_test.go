package host

import (
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/r8asm"
	"repro/internal/serial"
	"repro/internal/sim"
)

// rig builds a host + serial IP + remote memory system without the
// processor IPs, isolating the host software stack.
func rig(t *testing.T) (*Host, *serial.IP, *mem.IP) {
	t.Helper()
	clk := sim.NewClock()
	net, err := noc.New(clk, noc.Defaults(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	toNoC := serial.NewLine(clk)
	fromNoC := serial.NewLine(clk)
	sip, err := serial.NewIP(net, noc.Addr{X: 0, Y: 0}, toNoC, fromNoC)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mem.NewIP(net, noc.Addr{X: 1, Y: 1}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	h := New(clk, toNoC, fromNoC, 16)
	return h, sip, m
}

func TestSyncLocksBaud(t *testing.T) {
	h, sip, _ := rig(t)
	if sip.Synchronized() {
		t.Fatal("synchronized before sync byte")
	}
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	if !sip.Synchronized() || sip.Baud() != 16 {
		t.Fatalf("synchronized=%v baud=%d", sip.Synchronized(), sip.Baud())
	}
}

func TestCommandsRequireSync(t *testing.T) {
	h, _, _ := rig(t)
	if err := h.WriteMemory(noc.Addr{X: 1, Y: 1}, 0, []uint16{1}); err == nil {
		t.Error("write before sync accepted")
	}
	if _, err := h.ReadMemory(noc.Addr{X: 1, Y: 1}, 0, 1); err == nil {
		t.Error("read before sync accepted")
	}
	if err := h.Activate(noc.Addr{X: 0, Y: 1}); err == nil {
		t.Error("activate before sync accepted")
	}
}

func TestWriteReadMemory(t *testing.T) {
	h, _, m := rig(t)
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	data := []uint16{0x1111, 0x2222, 0x3333}
	if err := h.WriteMemory(noc.Addr{X: 1, Y: 1}, 0x40, data); err != nil {
		t.Fatal(err)
	}
	// Wait for the frame to cross the wire and the engine to apply it.
	if err := h.RunUntil(func() bool { return m.Banks().Read(0x42) == 0x3333 }, 1_000_000); err != nil {
		t.Fatal(err)
	}
	got, err := h.ReadMemory(noc.Addr{X: 1, Y: 1}, 0x40, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range data {
		if got[i] != w {
			t.Errorf("word %d = %#x", i, got[i])
		}
	}
	if h.FramesSent != 2 || h.FramesRecv != 1 {
		t.Errorf("frame counters: sent=%d recv=%d", h.FramesSent, h.FramesRecv)
	}
}

func TestReadTimeoutErrorIsDescriptive(t *testing.T) {
	h, _, _ := rig(t)
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	// Router 01 has no endpoint: the read can never be answered.
	_, err := h.ReadMemory(noc.Addr{X: 0, Y: 1}, 0, 1)
	if err == nil {
		t.Fatal("read of absent IP succeeded")
	}
	if !strings.Contains(err.Error(), "01") {
		t.Errorf("error %q does not name the target", err)
	}
}

func TestLoadProgramWritesSegments(t *testing.T) {
	h, _, m := rig(t)
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	// Hand-build a two-segment program image.
	prog := testProgram(t)
	if err := h.LoadProgram(noc.Addr{X: 1, Y: 1}, prog); err != nil {
		t.Fatal(err)
	}
	if err := h.RunUntil(func() bool { return m.Banks().Read(0x0200) == 0xBEEF }, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if m.Banks().Read(0) == 0 {
		t.Error("first segment not written")
	}
}

func testProgram(t *testing.T) *r8asm.Program {
	t.Helper()
	p, err := r8asm.Assemble("NOP\nHALT\n.org 0x0200\n.word 0xBEEF")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestManualScanfPath(t *testing.T) {
	// Without a ScanfData hook the request queues in ScanfPending and
	// the user answers manually (the Figure 9 monitor's input box).
	h, _, _ := rig(t)
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	// Emulate an incoming scanf frame by feeding the parser directly
	// through handle (the serial path is covered elsewhere).
	h.handle(&noc.Message{Svc: noc.SvcScanf, Src: noc.Addr{X: 0, Y: 1}})
	if len(h.ScanfPending()) != 1 {
		t.Fatalf("pending = %v", h.ScanfPending())
	}
	if err := h.SendScanf(noc.Addr{X: 0, Y: 1}, 99); err != nil {
		t.Fatal(err)
	}
}

func TestPrintfEventLog(t *testing.T) {
	h, _, _ := rig(t)
	h.handle(&noc.Message{Svc: noc.SvcPrintf, Src: noc.Addr{X: 0, Y: 1}, Bytes: []byte("ab")})
	h.handle(&noc.Message{Svc: noc.SvcPrintf, Src: noc.Addr{X: 0, Y: 1}, Bytes: []byte("c")})
	if string(h.Printf(noc.Addr{X: 0, Y: 1})) != "abc" {
		t.Errorf("accumulated = %q", h.Printf(noc.Addr{X: 0, Y: 1}))
	}
	if n := len(h.PrintfEvents()); n != 2 {
		t.Errorf("events = %d", n)
	}
}

// TestDrainDeadlineCountsCycles: drain's budget is in cycles. A gap far
// longer than the budget holds the second byte back; time warp crosses
// the gap in one step, so a budget counted in steps would let drain
// finish past its deadline instead of failing.
func TestDrainDeadlineCountsCycles(t *testing.T) {
	h, _, _ := rig(t)
	h.utx.Gap = 1 << 30
	h.utx.Queue(serial.SyncByte, serial.SyncByte)
	h.self.Wake()
	if err := h.drain(); err == nil {
		t.Fatalf("drain returned at cycle %d, past its budget", h.clk.Cycle())
	}
}
