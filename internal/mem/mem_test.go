package mem

import (
	"testing"
	"testing/quick"

	"repro/internal/noc"
	"repro/internal/sim"
)

func TestBanksRoundTrip(t *testing.T) {
	if err := quick.Check(func(addr, v uint16) bool {
		b := NewBanks(1024)
		b.Write(addr, v)
		return b.Read(addr) == v
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestBanksNibbleSlicing(t *testing.T) {
	b := NewBanks(16)
	b.Write(3, 0xABCD)
	// Bank k holds bits [4k+3:4k]: D in bank 0, C in 1, B in 2, A in 3.
	want := []uint8{0xD, 0xC, 0xB, 0xA}
	for k := 0; k < BankCount; k++ {
		if b.bank[k][3] != want[k] {
			t.Errorf("bank %d nibble = %#x, want %#x", k, b.bank[k][3], want[k])
		}
	}
}

func TestBanksAddressWrap(t *testing.T) {
	b := NewBanks(1024)
	b.Write(1024+5, 0x1111)
	if b.Read(5) != 0x1111 {
		t.Error("address did not wrap modulo capacity")
	}
}

func TestBanksLoadDump(t *testing.T) {
	b := NewBanks(8)
	if err := b.Load([]uint16{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got := b.Dump(0, 4)
	for i, want := range []uint16{1, 2, 3, 0} {
		if got[i] != want {
			t.Errorf("dump[%d] = %d, want %d", i, got[i], want)
		}
	}
	if err := b.Load(make([]uint16, 9)); err == nil {
		t.Error("oversized load accepted")
	}
}

// harness builds a 2x2 net with a remote memory at 11 and a raw
// endpoint at 00 to poke it, mirroring Figure 1's topology.
func harness(t *testing.T) (*sim.Clock, *noc.Network, *IP, *noc.Endpoint) {
	t.Helper()
	clk := sim.NewClock()
	net, err := noc.New(clk, noc.Defaults(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	ip, err := NewIP(net, noc.Addr{X: 1, Y: 1}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	host, err := net.NewEndpoint(noc.Addr{X: 0, Y: 0})
	if err != nil {
		t.Fatal(err)
	}
	return clk, net, ip, host
}

func awaitMessage(t *testing.T, clk *sim.Clock, ep *noc.Endpoint, max uint64) *noc.Message {
	t.Helper()
	var got *noc.Message
	err := clk.RunUntil(func() bool {
		m, ok, err := ep.RecvMessage()
		if err != nil {
			t.Fatalf("RecvMessage: %v", err)
		}
		got = m
		return ok
	}, max)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestWriteThenReadOverNoC(t *testing.T) {
	clk, _, ip, host := harness(t)
	dst := noc.Addr{X: 1, Y: 1}
	write := &noc.Message{Svc: noc.SvcWriteMem, Addr: 0x0100, Words: []uint16{0xAA55, 0x1234, 0xFFFF}}
	if _, err := host.SendMessage(dst, write); err != nil {
		t.Fatal(err)
	}
	read := &noc.Message{Svc: noc.SvcReadMem, Addr: 0x0100, Count: 3}
	if _, err := host.SendMessage(dst, read); err != nil {
		t.Fatal(err)
	}
	reply := awaitMessage(t, clk, host, 100000)
	if reply.Svc != noc.SvcReadReturn {
		t.Fatalf("reply service = %s", reply.Svc)
	}
	if reply.Addr != 0x0100 {
		t.Errorf("reply addr = %#x", reply.Addr)
	}
	want := []uint16{0xAA55, 0x1234, 0xFFFF}
	for i, w := range want {
		if reply.Words[i] != w {
			t.Errorf("word %d = %#x, want %#x", i, reply.Words[i], w)
		}
	}
	if ip.Banks().Read(0x0101) != 0x1234 {
		t.Error("banks not updated")
	}
	if ip.Engine().WritesServed != 1 || ip.Engine().ReadsServed != 1 {
		t.Errorf("served counters: %+v", ip.Engine())
	}
}

func TestReadReturnGoesToRequester(t *testing.T) {
	// Two requesters; each must get its own data back.
	clk, net, ip, host := harness(t)
	other, err := net.NewEndpoint(noc.Addr{X: 0, Y: 1})
	if err != nil {
		t.Fatal(err)
	}
	ip.Banks().Write(10, 111)
	ip.Banks().Write(20, 222)
	dst := noc.Addr{X: 1, Y: 1}
	if _, err := host.SendMessage(dst, &noc.Message{Svc: noc.SvcReadMem, Addr: 10, Count: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := other.SendMessage(dst, &noc.Message{Svc: noc.SvcReadMem, Addr: 20, Count: 1}); err != nil {
		t.Fatal(err)
	}
	m1 := awaitMessage(t, clk, host, 100000)
	m2 := awaitMessage(t, clk, other, 100000)
	if m1.Words[0] != 111 {
		t.Errorf("host got %d, want 111", m1.Words[0])
	}
	if m2.Words[0] != 222 {
		t.Errorf("other got %d, want 222", m2.Words[0])
	}
}

// TestZeroWordReadRejected sends a read of 0 words, which Encode
// refuses, as a raw packet. The memory must reject it and settle, not
// read its banks forever for a reply that never fills.
func TestZeroWordReadRejected(t *testing.T) {
	clk, _, ip, host := harness(t)
	read := []uint16{uint16(noc.SvcReadMem), host.Addr().Encode(), 0x00, 0x10, 0}
	if _, err := host.Send(noc.Addr{X: 1, Y: 1}, read); err != nil {
		t.Fatal(err)
	}
	if err := clk.RunUntilQuiescent(200_000); err != nil {
		t.Fatal(err)
	}
	if e := ip.Engine(); e.Rejected != 1 || e.ReadsServed != 0 || ip.Banks().Reads != 0 {
		t.Errorf("Rejected %d, ReadsServed %d, bank reads %d; want 1, 0, 0", e.Rejected, e.ReadsServed, ip.Banks().Reads)
	}
}

func TestNonMemoryServiceRejected(t *testing.T) {
	clk, _, ip, host := harness(t)
	if _, err := host.SendMessage(noc.Addr{X: 1, Y: 1}, &noc.Message{Svc: noc.SvcActivate}); err != nil {
		t.Fatal(err)
	}
	if err := clk.RunUntil(func() bool { return ip.Engine().Rejected > 0 }, 100000); err != nil {
		t.Fatal("activate not rejected:", err)
	}
}

func TestEngineBankArbitration(t *testing.T) {
	// With banksFree always false, a write op must make no progress;
	// releasing the banks lets it finish. This is the
	// processor-priority rule of §2.3.
	banks := NewBanks(64)
	var sent []*noc.Message
	eng := NewEngine(banks, func(dst noc.Addr, m *noc.Message) error {
		sent = append(sent, m)
		return nil
	})
	eng.Deliver(&noc.Message{Svc: noc.SvcWriteMem, Addr: 0, Words: []uint16{7, 8}})
	eng.Tick(true, true) // dequeues
	for i := 0; i < 10; i++ {
		eng.Tick(false, true) // banks held by processor
	}
	if banks.Read(0) == 7 {
		t.Fatal("write progressed while banks were busy")
	}
	eng.Tick(true, true)
	eng.Tick(true, true)
	if banks.Read(0) != 7 || banks.Read(1) != 8 {
		t.Errorf("write incomplete: %d %d", banks.Read(0), banks.Read(1))
	}
	if !eng.Busy() {
		// After the final write the engine went idle, which is fine —
		// Busy must have been true *during* the op; spot-check via a
		// fresh op below.
	}
	eng.Deliver(&noc.Message{Svc: noc.SvcReadMem, Addr: 0, Count: 1})
	if !eng.Busy() {
		t.Error("engine not busy with queued op")
	}
	eng.Tick(true, true)
	eng.Tick(true, true)
	// Reply blocked while NoC interface is held (busyNoCR8).
	for i := 0; i < 5; i++ {
		eng.Tick(true, false)
	}
	if len(sent) != 0 {
		t.Fatal("read return sent while NoC interface busy")
	}
	eng.Tick(true, true)
	if len(sent) != 1 || sent[0].Words[0] != 7 {
		t.Fatalf("read return = %+v", sent)
	}
}

func TestEngineServiceTiming(t *testing.T) {
	// A k-word write takes exactly k bank cycles after dispatch.
	banks := NewBanks(64)
	eng := NewEngine(banks, func(noc.Addr, *noc.Message) error { return nil })
	eng.Deliver(&noc.Message{Svc: noc.SvcWriteMem, Addr: 0, Words: []uint16{1, 2, 3, 4, 5}})
	ticks := 0
	for eng.Busy() {
		eng.Tick(true, true)
		ticks++
		if ticks > 100 {
			t.Fatal("engine wedged")
		}
	}
	// 1 dispatch + 5 writes.
	if ticks != 6 {
		t.Errorf("write of 5 words took %d ticks, want 6", ticks)
	}
	if banks.Writes != 5 {
		t.Errorf("bank writes = %d, want 5", banks.Writes)
	}
}
