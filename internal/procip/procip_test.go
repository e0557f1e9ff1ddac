package procip

import (
	"testing"

	"repro/internal/noc"
	"repro/internal/r8"
	"repro/internal/sim"
)

// rig builds a 2x2 net with one Processor IP at 01 and a raw endpoint
// at 00 playing host/peer.
func rig(t *testing.T, cfg Config) (*sim.Clock, *noc.Network, *IP, *noc.Endpoint) {
	t.Helper()
	net, err := noc.New(noc.Defaults(2, 2), "")
	if err != nil {
		t.Fatal(err)
	}
	clk := net.Clock()
	if cfg.Addr == (noc.Addr{}) {
		cfg.Addr = noc.Addr{X: 0, Y: 1}
	}
	if cfg.Host == (noc.Addr{}) {
		cfg.Host = noc.Addr{X: 0, Y: 0}
	}
	if cfg.ID == 0 {
		cfg.ID = 1
	}
	ip, err := New(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	host, err := net.NewEndpoint(noc.Addr{X: 0, Y: 0})
	if err != nil {
		t.Fatal(err)
	}
	return clk, net, ip, host
}

// loadWords assembles raw instructions into the local banks.
func loadInsts(t *testing.T, ip *IP, insts ...r8.Inst) {
	t.Helper()
	for i, inst := range insts {
		w, err := inst.Encode()
		if err != nil {
			t.Fatal(err)
		}
		ip.Banks().Write(uint16(i), w)
	}
}

func activate(t *testing.T, clk *sim.Clock, host *noc.Endpoint, tgt noc.Addr) {
	t.Helper()
	if _, err := host.SendMessage(tgt, &noc.Message{Svc: noc.SvcActivate}); err != nil {
		t.Fatal(err)
	}
}

func TestInactiveUntilActivate(t *testing.T) {
	clk, _, ip, host := rig(t, Config{})
	loadInsts(t, ip, r8.Inst{Op: r8.HALT})
	clk.Run(500)
	if ip.Active() || ip.Halted() {
		t.Fatal("processor ran before activation")
	}
	activate(t, clk, host, ip.Addr())
	if err := clk.RunUntil(ip.Halted, 10000); err != nil {
		t.Fatal(err)
	}
	if ip.Stats().Activations != 1 {
		t.Errorf("activations = %d", ip.Stats().Activations)
	}
}

func TestLocalMemoryExecution(t *testing.T) {
	clk, _, ip, host := rig(t, Config{})
	// R1=0x30, R2=0x0100, store, halt.
	loadInsts(t, ip,
		r8.Inst{Op: r8.LDL, Rt: 1, Imm: 0x30},
		r8.Inst{Op: r8.LDL, Rt: 2, Imm: 0x00},
		r8.Inst{Op: r8.LDH, Rt: 2, Imm: 0x01},
		r8.Inst{Op: r8.ST, Rt: 1, Rs1: 2, Rs2: 3},
		r8.Inst{Op: r8.HALT},
	)
	activate(t, clk, host, ip.Addr())
	if err := clk.RunUntil(ip.Halted, 10000); err != nil {
		t.Fatal(err)
	}
	if got := ip.Banks().Read(0x0100); got != 0x30 {
		t.Errorf("mem[0x100] = %#x", got)
	}
}

func TestNoCServesLocalMemoryWhileRunning(t *testing.T) {
	// The engine must serve remote reads of the local memory while the
	// CPU spins (processor-priority arbitration, §2.3).
	clk, _, ip, host := rig(t, Config{})
	ip.Banks().Write(0x0200, 0xCAFE)
	// Infinite loop touching local memory every iteration.
	loadInsts(t, ip,
		r8.Inst{Op: r8.LD, Rt: 1, Rs1: 2, Rs2: 3},
		r8.Inst{Op: r8.JMP, Disp: -2},
	)
	activate(t, clk, host, ip.Addr())
	clk.Run(100)
	if _, err := host.SendMessage(ip.Addr(), &noc.Message{Svc: noc.SvcReadMem, Addr: 0x0200, Count: 1}); err != nil {
		t.Fatal(err)
	}
	var got *noc.Message
	err := clk.RunUntil(func() bool {
		m, ok, err := host.RecvMessage()
		if err != nil {
			t.Fatal(err)
		}
		got = m
		return ok
	}, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if got.Svc != noc.SvcReadReturn || got.Words[0] != 0xCAFE {
		t.Errorf("reply %+v", got)
	}
	if ip.Halted() {
		t.Error("CPU stopped unexpectedly")
	}
}

func TestUnmappedAccessCounted(t *testing.T) {
	clk, _, ip, host := rig(t, Config{})
	// Load from 0x5000: no window maps it.
	loadInsts(t, ip,
		r8.Inst{Op: r8.LDH, Rt: 2, Imm: 0x50},
		r8.Inst{Op: r8.LDL, Rt: 2, Imm: 0x00},
		r8.Inst{Op: r8.LD, Rt: 1, Rs1: 2, Rs2: 3},
		r8.Inst{Op: r8.HALT},
	)
	activate(t, clk, host, ip.Addr())
	if err := clk.RunUntil(ip.Halted, 10000); err != nil {
		t.Fatal(err)
	}
	if ip.Stats().UnmappedReads == 0 {
		t.Error("unmapped access not counted")
	}
}

func TestRemoteWindowTranslation(t *testing.T) {
	// A window [1024,2048) -> 00 must emit a read with the offset
	// subtracted.
	clk, _, ip, host := rig(t, Config{
		Windows: []Window{{Lo: 1024, Hi: 2048, Target: noc.Addr{X: 0, Y: 0}}},
	})
	loadInsts(t, ip,
		r8.Inst{Op: r8.LDH, Rt: 2, Imm: 0x04}, // R2 = 0x0400 + 5
		r8.Inst{Op: r8.LDL, Rt: 2, Imm: 0x05},
		r8.Inst{Op: r8.LD, Rt: 1, Rs1: 2, Rs2: 3},
		r8.Inst{Op: r8.HALT},
	)
	activate(t, clk, host, ip.Addr())
	var req *noc.Message
	err := clk.RunUntil(func() bool {
		m, ok, err := host.RecvMessage()
		if err != nil {
			t.Fatal(err)
		}
		if ok && m.Svc == noc.SvcReadMem {
			req = m
			return true
		}
		return false
	}, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if req.Addr != 5 || req.Count != 1 {
		t.Errorf("request %+v, want addr 5 count 1", req)
	}
	if ip.Halted() {
		t.Fatal("CPU did not stall on the remote read")
	}
	// Answer it and let the CPU finish.
	if _, err := host.SendMessage(ip.Addr(), &noc.Message{Svc: noc.SvcReadReturn, Addr: 5, Words: []uint16{0x77}}); err != nil {
		t.Fatal(err)
	}
	if err := clk.RunUntil(ip.Halted, 100000); err != nil {
		t.Fatal(err)
	}
	if got := ip.CPU().Regs[1]; got != 0x77 {
		t.Errorf("loaded %#x", got)
	}
}

func TestScanfStallsUntilReturn(t *testing.T) {
	clk, _, ip, host := rig(t, Config{})
	loadInsts(t, ip,
		r8.Inst{Op: r8.LDH, Rt: 2, Imm: 0xFF},
		r8.Inst{Op: r8.LDL, Rt: 2, Imm: 0xFF},
		r8.Inst{Op: r8.LD, Rt: 1, Rs1: 2, Rs2: 3}, // scanf
		r8.Inst{Op: r8.HALT},
	)
	activate(t, clk, host, ip.Addr())
	err := clk.RunUntil(func() bool {
		m, ok, err := host.RecvMessage()
		if err != nil {
			t.Fatal(err)
		}
		return ok && m.Svc == noc.SvcScanf
	}, 100000)
	if err != nil {
		t.Fatal(err)
	}
	clk.Run(1000)
	if ip.Halted() {
		t.Fatal("CPU ran past a pending scanf")
	}
	if _, err := host.SendMessage(ip.Addr(), &noc.Message{Svc: noc.SvcScanfReturn, Words: []uint16{1234}}); err != nil {
		t.Fatal(err)
	}
	if err := clk.RunUntil(ip.Halted, 100000); err != nil {
		t.Fatal(err)
	}
	if ip.CPU().Regs[1] != 1234 {
		t.Errorf("scanf value = %d", ip.CPU().Regs[1])
	}
}

func TestPrintfIsPosted(t *testing.T) {
	clk, _, ip, host := rig(t, Config{})
	loadInsts(t, ip,
		r8.Inst{Op: r8.LDH, Rt: 2, Imm: 0xFF},
		r8.Inst{Op: r8.LDL, Rt: 2, Imm: 0xFF},
		r8.Inst{Op: r8.LDL, Rt: 1, Imm: 'X'},
		r8.Inst{Op: r8.ST, Rt: 1, Rs1: 2, Rs2: 3},
		r8.Inst{Op: r8.HALT},
	)
	activate(t, clk, host, ip.Addr())
	var got *noc.Message
	err := clk.RunUntil(func() bool {
		m, ok, err := host.RecvMessage()
		if err != nil {
			t.Fatal(err)
		}
		if ok && m.Svc == noc.SvcPrintf {
			got = m
			return true
		}
		return false
	}, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Bytes) != "X" {
		t.Errorf("printf bytes %q", got.Bytes)
	}
	if !ip.Halted() {
		clk.Run(1000)
	}
	if !ip.Halted() {
		t.Error("printf blocked the CPU")
	}
}

func TestNotifyToUnknownProcessorIsError(t *testing.T) {
	clk, _, ip, host := rig(t, Config{ProcByID: map[uint16]noc.Addr{}})
	loadInsts(t, ip,
		r8.Inst{Op: r8.LDH, Rt: 2, Imm: 0xFF},
		r8.Inst{Op: r8.LDL, Rt: 2, Imm: 0xFD}, // notify address
		r8.Inst{Op: r8.LDL, Rt: 1, Imm: 9},    // unknown processor 9
		r8.Inst{Op: r8.ST, Rt: 1, Rs1: 2, Rs2: 3},
		r8.Inst{Op: r8.HALT},
	)
	activate(t, clk, host, ip.Addr())
	if err := clk.RunUntil(ip.Halted, 100000); err != nil {
		t.Fatal(err)
	}
	if ip.Stats().PacketErrors == 0 {
		t.Error("unknown notify target not flagged")
	}
}

func TestHostDrivenNotifyWakesWait(t *testing.T) {
	// The peer table maps processor 5 to the host endpoint, so the
	// "host" can model the second processor of the paper's example.
	clk, _, ip, host := rig(t, Config{
		ProcByID: map[uint16]noc.Addr{5: {X: 0, Y: 0}},
	})
	loadInsts(t, ip,
		r8.Inst{Op: r8.LDH, Rt: 2, Imm: 0xFF},
		r8.Inst{Op: r8.LDL, Rt: 2, Imm: 0xFE}, // wait address
		r8.Inst{Op: r8.LDL, Rt: 1, Imm: 5},    // wait for processor 5
		r8.Inst{Op: r8.ST, Rt: 1, Rs1: 2, Rs2: 3},
		r8.Inst{Op: r8.HALT},
	)
	activate(t, clk, host, ip.Addr())
	if err := clk.RunUntil(ip.Waiting, 100000); err != nil {
		t.Fatal(err)
	}
	// Give the registration packet its NoC transit time.
	clk.Run(200)
	// Wait registration packet should have arrived at the notifier.
	var reg *noc.Message
	for {
		m, ok, err := host.RecvMessage()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if m.Svc == noc.SvcWait {
			reg = m
		}
	}
	if reg == nil || reg.Proc != 1 {
		t.Fatalf("wait registration = %+v", reg)
	}
	if _, err := host.SendMessage(ip.Addr(), &noc.Message{Svc: noc.SvcNotify, Proc: 5}); err != nil {
		t.Fatal(err)
	}
	if err := clk.RunUntil(ip.Halted, 100000); err != nil {
		t.Fatal(err)
	}
	if ip.Waiting() {
		t.Error("still waiting after notify")
	}
}

func TestNotifyFromWrongSourceDoesNotWake(t *testing.T) {
	clk, _, ip, host := rig(t, Config{
		ProcByID: map[uint16]noc.Addr{5: {X: 0, Y: 0}, 6: {X: 1, Y: 1}},
	})
	loadInsts(t, ip,
		r8.Inst{Op: r8.LDH, Rt: 2, Imm: 0xFF},
		r8.Inst{Op: r8.LDL, Rt: 2, Imm: 0xFE},
		r8.Inst{Op: r8.LDL, Rt: 1, Imm: 5}, // waits for processor 5
		r8.Inst{Op: r8.ST, Rt: 1, Rs1: 2, Rs2: 3},
		r8.Inst{Op: r8.HALT},
	)
	activate(t, clk, host, ip.Addr())
	if err := clk.RunUntil(ip.Waiting, 100000); err != nil {
		t.Fatal(err)
	}
	// A notify from processor 6 must not wake a wait on 5.
	if _, err := host.SendMessage(ip.Addr(), &noc.Message{Svc: noc.SvcNotify, Proc: 6}); err != nil {
		t.Fatal(err)
	}
	clk.Run(5000)
	if ip.Halted() {
		t.Fatal("woken by the wrong notifier")
	}
	// The right one wakes it; the queued notify from 6 stays pending.
	if _, err := host.SendMessage(ip.Addr(), &noc.Message{Svc: noc.SvcNotify, Proc: 5}); err != nil {
		t.Fatal(err)
	}
	if err := clk.RunUntil(ip.Halted, 100000); err != nil {
		t.Fatal(err)
	}
}
