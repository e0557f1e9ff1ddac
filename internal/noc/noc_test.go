package noc

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/vcd"
)

// build constructs a network plus endpoints on every router.
func build(t testing.TB, cfg Config) (*sim.Clock, *Network) {
	t.Helper()
	net := buildOn(t, cfg, "")
	return net.Clock(), net
}

// buildOn is build under kernel k.
func buildOn(t testing.TB, cfg Config, k sim.Kernel) *Network {
	t.Helper()
	net, err := New(cfg, k)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for x := 0; x < cfg.Width; x++ {
		for y := 0; y < cfg.Height; y++ {
			if _, err := net.NewEndpoint(Addr{x, y}); err != nil {
				t.Fatalf("NewEndpoint: %v", err)
			}
		}
	}
	return net
}

func TestAddrEncodeDecode(t *testing.T) {
	if err := quick.Check(func(x, y uint8) bool {
		a := Addr{X: int(x % 16), Y: int(y % 16)}
		return DecodeAddr(a.Encode()) == a
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestHopCount(t *testing.T) {
	cases := []struct {
		src, dst Addr
		want     int
	}{
		{Addr{0, 0}, Addr{0, 0}, 1},
		{Addr{0, 0}, Addr{1, 0}, 2},
		{Addr{0, 0}, Addr{0, 1}, 2},
		{Addr{0, 0}, Addr{3, 4}, 8},
		{Addr{4, 4}, Addr{0, 0}, 9},
	}
	for _, c := range cases {
		if got := HopCount(c.src, c.dst); got != c.want {
			t.Errorf("HopCount(%s,%s) = %d, want %d", c.src, c.dst, got, c.want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		func() Config { c := Defaults(0, 2); return c }(),
		func() Config { c := Defaults(17, 2); return c }(),
		func() Config { c := Defaults(2, 2); c.FlitBits = 7; return c }(),
		func() Config { c := Defaults(2, 2); c.BufDepth = 0; return c }(),
		func() Config { c := Defaults(2, 2); c.RouteCycles = 2; return c }(),
		func() Config { c := Defaults(2, 2); c.Routing = nil; return c }(),
	}
	for i, cfg := range bad {
		if _, err := New(cfg, ""); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := New(Defaults(2, 2), ""); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
	if _, err := New(Defaults(2, 2), "turbo"); err == nil {
		t.Error("unknown kernel accepted")
	}
}

func TestSinglePacketDelivery(t *testing.T) {
	clk, net := build(t, Defaults(2, 2))
	src, dst := Addr{0, 0}, Addr{1, 1}
	payload := []uint16{0xA, 0xB, 0xC}
	if _, err := net.Endpoint(src).Send(dst, payload); err != nil {
		t.Fatal(err)
	}
	if err := clk.RunUntil(func() bool { return net.Endpoint(dst).Pending() > 0 }, 10000); err != nil {
		t.Fatal(err)
	}
	p, ok := net.Endpoint(dst).Recv()
	if !ok {
		t.Fatal("no packet")
	}
	if p.Src != src {
		t.Errorf("src = %s, want %s", p.Src, src)
	}
	if len(p.Payload) != len(payload) {
		t.Fatalf("payload len = %d, want %d", len(p.Payload), len(payload))
	}
	for i := range payload {
		if p.Payload[i] != payload[i] {
			t.Errorf("payload[%d] = %#x, want %#x", i, p.Payload[i], payload[i])
		}
	}
}

func TestSelfDelivery(t *testing.T) {
	// A packet addressed to the sender's own router must come back via
	// the Local port.
	clk, net := build(t, Defaults(2, 2))
	a := Addr{0, 1}
	if _, err := net.Endpoint(a).Send(a, []uint16{42}); err != nil {
		t.Fatal(err)
	}
	if err := clk.RunUntil(func() bool { return net.Endpoint(a).Pending() > 0 }, 10000); err != nil {
		t.Fatal(err)
	}
	p, _ := net.Endpoint(a).Recv()
	if p.Payload[0] != 42 {
		t.Errorf("payload = %d, want 42", p.Payload[0])
	}
}

func TestPayloadMasking(t *testing.T) {
	// 8-bit flits must truncate payload values to a byte.
	clk, net := build(t, Defaults(2, 2))
	src, dst := Addr{0, 0}, Addr{1, 0}
	if _, err := net.Endpoint(src).Send(dst, []uint16{0x1FF}); err != nil {
		t.Fatal(err)
	}
	if err := clk.RunUntil(func() bool { return net.Endpoint(dst).Pending() > 0 }, 10000); err != nil {
		t.Fatal(err)
	}
	p, _ := net.Endpoint(dst).Recv()
	if p.Payload[0] != 0xFF {
		t.Errorf("payload = %#x, want 0xFF", p.Payload[0])
	}
}

func TestMaxPayloadRejected(t *testing.T) {
	_, net := build(t, Defaults(2, 2))
	big := make([]uint16, MaxPayload(8)+1)
	if _, err := net.Endpoint(Addr{0, 0}).Send(Addr{1, 1}, big); err == nil {
		t.Error("oversized payload accepted")
	}
	ok := make([]uint16, MaxPayload(8))
	if _, err := net.Endpoint(Addr{0, 0}).Send(Addr{1, 1}, ok); err != nil {
		t.Errorf("max payload rejected: %v", err)
	}
}

// TestLatencyFormula is experiment E1's core assertion: on an idle
// network, measured latency must match the paper's model
// (sum Ri + P) x 2 = 14*hops + 2*P within a small additive constant.
func TestLatencyFormula(t *testing.T) {
	cfg := Defaults(8, 8)
	for _, hops := range []int{1, 2, 4, 8} {
		for _, pay := range []int{4, 16, 64} {
			clk, net := build(t, cfg)
			src := Addr{0, 0}
			dst := Addr{hops - 1, 0}
			meta, err := net.Endpoint(src).Send(dst, make([]uint16, pay))
			if err != nil {
				t.Fatal(err)
			}
			if err := clk.RunUntil(func() bool { return meta.EjectCycle != 0 }, 100000); err != nil {
				t.Fatalf("hops=%d pay=%d: %v", hops, pay, err)
			}
			got := meta.NetworkLatency()
			want := FormulaLatency(cfg, HopCount(src, dst), pay+2)
			diff := int64(got) - int64(want)
			if diff < -4 || diff > 4 {
				t.Errorf("hops=%d pay=%d: measured %d vs formula %d (diff %d)",
					HopCount(src, dst), pay, got, want, diff)
			}
		}
	}
}

// TestTwoCyclePerFlitStreaming checks the handshake cadence directly:
// doubling the payload must add exactly 2 cycles per extra flit.
func TestTwoCyclePerFlitStreaming(t *testing.T) {
	cfg := Defaults(4, 1)
	measure := func(pay int) uint64 {
		clk, net := build(t, cfg)
		meta, err := net.Endpoint(Addr{0, 0}).Send(Addr{3, 0}, make([]uint16, pay))
		if err != nil {
			t.Fatal(err)
		}
		if err := clk.RunUntil(func() bool { return meta.EjectCycle != 0 }, 100000); err != nil {
			t.Fatal(err)
		}
		return meta.NetworkLatency()
	}
	l8, l16 := measure(8), measure(16)
	if l16-l8 != 16 {
		t.Errorf("8 extra flits cost %d cycles, want 16", l16-l8)
	}
}

func TestWormholeBlocking(t *testing.T) {
	// Two packets contending for the same output must serialize, and
	// both must still arrive intact (round-robin arbitration).
	clk, net := build(t, Defaults(3, 3))
	dst := Addr{2, 1}
	m1, err := net.Endpoint(Addr{0, 1}).Send(dst, seq(40))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := net.Endpoint(Addr{1, 0}).Send(dst, seq(40))
	if err != nil {
		t.Fatal(err)
	}
	if err := clk.RunUntil(func() bool { return m1.EjectCycle != 0 && m2.EjectCycle != 0 }, 100000); err != nil {
		t.Fatal(err)
	}
	ep := net.Endpoint(dst)
	for i := 0; i < 2; i++ {
		p, ok := ep.Recv()
		if !ok {
			t.Fatal("missing packet")
		}
		for j, v := range p.Payload {
			if v != uint16(j&0xFF) {
				t.Fatalf("packet %d corrupted at flit %d: %#x", i, j, v)
			}
		}
	}
	// The two tails cannot eject closer than the streaming time of one
	// packet, since the shared link serializes them.
	d := int64(m2.EjectCycle) - int64(m1.EjectCycle)
	if d < 0 {
		d = -d
	}
	if d < 40 {
		t.Errorf("contending packets overlapped: eject delta %d < 40", d)
	}
}

func TestAllPairsDelivery(t *testing.T) {
	// Every endpoint sends to every other endpoint; all packets must
	// arrive with correct source attribution (XY is deadlock-free).
	cfg := Defaults(4, 4)
	clk, net := build(t, cfg)
	want := 0
	for sx := 0; sx < 4; sx++ {
		for sy := 0; sy < 4; sy++ {
			for dx := 0; dx < 4; dx++ {
				for dy := 0; dy < 4; dy++ {
					if sx == dx && sy == dy {
						continue
					}
					src := Addr{sx, sy}
					payload := []uint16{uint16(sx), uint16(sy), uint16(dx), uint16(dy)}
					if _, err := net.Endpoint(src).Send(Addr{dx, dy}, payload); err != nil {
						t.Fatal(err)
					}
					want++
				}
			}
		}
	}
	if err := clk.RunUntil(func() bool { return int(net.Delivered()) == want }, 2_000_000); err != nil {
		t.Fatalf("delivered %d/%d: %v", net.Delivered(), want, err)
	}
	got := 0
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			ep := net.Endpoint(Addr{x, y})
			for {
				p, ok := ep.Recv()
				if !ok {
					break
				}
				got++
				if int(p.Payload[2]) != x || int(p.Payload[3]) != y {
					t.Errorf("misdelivered: payload says dst (%d,%d), arrived at (%d,%d)",
						p.Payload[2], p.Payload[3], x, y)
				}
				if p.Src != (Addr{int(p.Payload[0]), int(p.Payload[1])}) {
					t.Errorf("src mismatch: %s vs payload (%d,%d)", p.Src, p.Payload[0], p.Payload[1])
				}
			}
		}
	}
	if got != want {
		t.Errorf("received %d packets, want %d", got, want)
	}
}

func TestRoutingAlgorithms(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   RoutingFunc
	}{{"XY", RouteXY}, {"YX", RouteYX}, {"WestFirst", RouteWestFirst}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Defaults(4, 4)
			cfg.Routing = tc.fn
			clk, net := build(t, cfg)
			m, err := net.Endpoint(Addr{3, 3}).Send(Addr{0, 0}, []uint16{1, 2, 3})
			if err != nil {
				t.Fatal(err)
			}
			if err := clk.RunUntil(func() bool { return m.EjectCycle != 0 }, 100000); err != nil {
				t.Fatal(err)
			}
			if net.Endpoint(Addr{0, 0}).Pending() != 1 {
				t.Error("packet not delivered")
			}
		})
	}
}

func TestRoutingFuncProperties(t *testing.T) {
	// Each algorithm must make progress: applying the returned direction
	// repeatedly must reach the destination (no livelock off-network).
	algos := map[string]RoutingFunc{"XY": RouteXY, "YX": RouteYX, "WestFirst": RouteWestFirst}
	for name, fn := range algos {
		if err := quick.Check(func(sx, sy, dx, dy uint8) bool {
			here := Addr{int(sx % 8), int(sy % 8)}
			dst := Addr{int(dx % 8), int(dy % 8)}
			for steps := 0; steps < 64; steps++ {
				p := fn(here, dst, Local)
				if p == Local {
					return here == dst
				}
				switch p {
				case East:
					here.X++
				case West:
					here.X--
				case North:
					here.Y++
				case South:
					here.Y--
				}
				if here.X < 0 || here.X >= 8 || here.Y < 0 || here.Y >= 8 {
					return false
				}
			}
			return false
		}, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []uint64 {
		clk, net := build(t, Defaults(3, 3))
		r := sim.NewRand(42)
		for i := 0; i < 30; i++ {
			src := Addr{r.Intn(3), r.Intn(3)}
			dst := Addr{r.Intn(3), r.Intn(3)}
			if _, err := net.Endpoint(src).Send(dst, seq(r.Intn(20)+1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := clk.RunUntil(func() bool { return net.Delivered() == 30 }, 1_000_000); err != nil {
			t.Fatal(err)
		}
		var lats []uint64
		for _, m := range net.Completed() {
			lats = append(lats, m.ID, m.InjectCycle, m.EjectCycle)
		}
		return lats
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different packet counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestRouterStatsAccounting(t *testing.T) {
	clk, net := build(t, Defaults(2, 2))
	m, err := net.Endpoint(Addr{0, 0}).Send(Addr{1, 1}, seq(10))
	if err != nil {
		t.Fatal(err)
	}
	if err := clk.RunUntil(func() bool { return m.EjectCycle != 0 }, 100000); err != nil {
		t.Fatal(err)
	}
	// Drain the final ack so the last router observes its tail-flit
	// acceptance before counters are read.
	clk.Run(2)
	// XY path: (0,0) -> East -> (1,0) -> North -> (1,1) -> Local.
	flits := uint64(12) // 10 payload + header + size
	if got := net.Router(Addr{0, 0}).Stats().FlitsOut[East]; got != flits {
		t.Errorf("router 00 east flits = %d, want %d", got, flits)
	}
	if got := net.Router(Addr{1, 0}).Stats().FlitsOut[North]; got != flits {
		t.Errorf("router 10 north flits = %d, want %d", got, flits)
	}
	if got := net.Router(Addr{1, 1}).Stats().FlitsOut[Local]; got != flits {
		t.Errorf("router 11 local flits = %d, want %d", got, flits)
	}
	if got := net.Router(Addr{0, 1}).Stats().TotalFlits(); got != 0 {
		t.Errorf("router 01 moved %d flits, want 0", got)
	}
	for _, a := range []Addr{{0, 0}, {1, 0}, {1, 1}} {
		if g := net.Router(a).Stats().PacketsRouted; g != 1 {
			t.Errorf("router %s routed %d packets, want 1", a, g)
		}
	}
}

func TestServiceRoundTrip(t *testing.T) {
	msgs := []*Message{
		{Svc: SvcReadMem, Src: Addr{1, 0}, Addr: 0x0020, Count: 5},
		{Svc: SvcReadReturn, Src: Addr{1, 1}, Addr: 0x0400, Words: []uint16{0xDEAD, 0xBEEF}},
		{Svc: SvcWriteMem, Src: Addr{0, 0}, Addr: 0x0123, Words: []uint16{1, 2, 3, 0xFFFF}},
		{Svc: SvcActivate, Src: Addr{0, 0}},
		{Svc: SvcPrintf, Src: Addr{0, 1}, Bytes: []byte("hello world")},
		{Svc: SvcScanf, Src: Addr{1, 0}},
		{Svc: SvcScanfReturn, Src: Addr{0, 0}, Words: []uint16{0x1234}},
		{Svc: SvcNotify, Src: Addr{1, 0}, Proc: 2},
		{Svc: SvcWait, Src: Addr{0, 1}, Proc: 1},
	}
	for _, m := range msgs {
		t.Run(m.Svc.String(), func(t *testing.T) {
			payload, err := m.Encode()
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeMessage(payload)
			if err != nil {
				t.Fatal(err)
			}
			if got.Svc != m.Svc || got.Src != m.Src || got.Addr != m.Addr {
				t.Errorf("header mismatch: %+v vs %+v", got, m)
			}
			if m.Svc == SvcReadMem && got.Count != m.Count {
				t.Errorf("count = %d, want %d", got.Count, m.Count)
			}
			if len(got.Words) != len(m.Words) {
				t.Fatalf("words = %v, want %v", got.Words, m.Words)
			}
			for i := range m.Words {
				if got.Words[i] != m.Words[i] {
					t.Errorf("word %d = %#x, want %#x", i, got.Words[i], m.Words[i])
				}
			}
			if string(got.Bytes) != string(m.Bytes) {
				t.Errorf("bytes = %q, want %q", got.Bytes, m.Bytes)
			}
			if got.Proc != m.Proc {
				t.Errorf("proc = %d, want %d", got.Proc, m.Proc)
			}
		})
	}
}

func TestServiceEncodingErrors(t *testing.T) {
	bad := []*Message{
		{Svc: SvcReadMem, Count: 0},
		{Svc: SvcReadMem, Count: 200},
		{Svc: SvcWriteMem},
		{Svc: SvcReadReturn, Words: make([]uint16, 200)},
		{Svc: SvcPrintf, Bytes: make([]byte, 251)},
		{Svc: SvcScanfReturn, Words: []uint16{1, 2}},
		{Svc: Service(99)},
	}
	for i, m := range bad {
		if _, err := m.Encode(); err == nil {
			t.Errorf("case %d (%s): bad message encoded", i, m.Svc)
		}
	}
}

func TestDecodeMessageErrors(t *testing.T) {
	bad := [][]uint16{
		nil,
		{1},
		{uint16(SvcReadMem), 0x00},
		{uint16(SvcReadMem), 0x00, 0x00},
		{uint16(SvcReadMem), 0x00, 0x00, 0x10, 0},                   // a 0-word read
		{uint16(SvcReadMem), 0x00, 0x00, 0x10, MaxServiceWords + 1}, // past what Encode sends
		{uint16(SvcWriteMem), 0x00, 0x00, 0x01, 0x02},               // odd data length
		{uint16(SvcPrintf), 0x00, 5, 'a'},
		{99, 0},
	}
	for i, p := range bad {
		if _, err := DecodeMessage(p); err == nil {
			t.Errorf("case %d: malformed packet decoded", i)
		}
	}
}

func TestServiceOverNetwork(t *testing.T) {
	clk, net := build(t, Defaults(2, 2))
	msg := &Message{Svc: SvcPrintf, Bytes: []byte("42\n")}
	if _, err := net.Endpoint(Addr{1, 0}).SendMessage(Addr{0, 0}, msg); err != nil {
		t.Fatal(err)
	}
	var got *Message
	err := clk.RunUntil(func() bool {
		m, ok, err := net.Endpoint(Addr{0, 0}).RecvMessage()
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			got = m
		}
		return ok
	}, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if got.Svc != SvcPrintf || string(got.Bytes) != "42\n" || got.Src != (Addr{1, 0}) {
		t.Errorf("received %+v", got)
	}
}

func TestSplitWords(t *testing.T) {
	spans := SplitWords(100, 300)
	want := []WordSpan{{100, 125}, {225, 125}, {350, 50}}
	if !slices.Equal(spans, want) {
		t.Errorf("SplitWords(100, 300) = %v, want %v", spans, want)
	}
	if SplitWords(0, 0) != nil {
		t.Error("empty split not nil")
	}
}

func TestFifoProperties(t *testing.T) {
	// The staged FIFO must behave as a queue under arbitrary
	// push/pop/commit sequences.
	if err := quick.Check(func(ops []byte) bool {
		f := newFifo(2)
		var model []uint16
		next := uint16(0)
		for _, op := range ops {
			switch op % 3 {
			case 0:
				if f.Free() > 0 && !f.hasPush {
					f.StagePush(Flit{Data: next})
					model = append(model, next)
					next++
				}
			case 1:
				if f.Len() > 0 && !f.stPop {
					if f.Head().Data != model[0] {
						return false
					}
					f.StagePop()
					model = model[1:]
				}
			case 2:
				f.Commit()
			}
		}
		f.Commit()
		if f.Len() != len(model) {
			return false
		}
		for i := 0; i < f.Len(); i++ {
			if f.At(i).Data != model[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEndpointDuplicate(t *testing.T) {
	net, err := New(Defaults(2, 2), "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.NewEndpoint(Addr{0, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := net.NewEndpoint(Addr{0, 0}); err == nil {
		t.Error("duplicate endpoint accepted")
	}
	if _, err := net.NewEndpoint(Addr{5, 5}); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
}

func seq(n int) []uint16 {
	s := make([]uint16, n)
	for i := range s {
		s[i] = uint16(i & 0xFF)
	}
	return s
}

func ExampleAddr_String() {
	fmt.Println(Addr{X: 1, Y: 0})
	// Output: 10
}

// TestStressContentIntegrity floods the mesh with random-sized,
// random-content packets under heavy contention and checks every
// payload byte survives wormhole blocking, arbitration and buffering —
// the no-loss/no-corruption invariant of the switching layer.
func TestStressContentIntegrity(t *testing.T) {
	cfg := Defaults(4, 4)
	cfg.BufDepth = 2
	clk, net := build(t, cfg)
	r := sim.NewRand(0xC0FFEE)

	type expect struct {
		src     Addr
		payload []uint16
	}
	pending := map[Addr][]expect{} // keyed by destination, in-order per (src,dst) pair
	const packets = 400
	sent := 0
	for sent < packets {
		src := Addr{r.Intn(4), r.Intn(4)}
		dst := Addr{r.Intn(4), r.Intn(4)}
		if src == dst {
			continue
		}
		n := 1 + r.Intn(30)
		payload := make([]uint16, n)
		for i := range payload {
			payload[i] = uint16(r.Intn(256))
		}
		if _, err := net.Endpoint(src).Send(dst, payload); err != nil {
			t.Fatal(err)
		}
		pending[dst] = append(pending[dst], expect{src: src, payload: payload})
		sent++
		// Interleave with simulation so queues overlap in flight.
		clk.Run(uint64(r.Intn(40)))
	}
	if err := clk.RunUntil(func() bool { return int(net.Delivered()) == packets }, 10_000_000); err != nil {
		t.Fatalf("delivered %d/%d: %v", net.Delivered(), packets, err)
	}
	got := 0
	for dst, exps := range pending {
		ep := net.Endpoint(dst)
		// Receive order per (src,dst) pair must match send order
		// (deterministic routing preserves per-pair ordering).
		bySrc := map[Addr][]expect{}
		for _, e := range exps {
			bySrc[e.src] = append(bySrc[e.src], e)
		}
		for {
			p, ok := ep.Recv()
			if !ok {
				break
			}
			got++
			q := bySrc[p.Src]
			if len(q) == 0 {
				t.Fatalf("unexpected packet %s -> %s", p.Src, dst)
			}
			e := q[0]
			bySrc[p.Src] = q[1:]
			if len(p.Payload) != len(e.payload) {
				t.Fatalf("%s->%s: length %d, want %d", p.Src, dst, len(p.Payload), len(e.payload))
			}
			for i := range e.payload {
				if p.Payload[i] != e.payload[i] {
					t.Fatalf("%s->%s: flit %d corrupted: %#x vs %#x",
						p.Src, dst, i, p.Payload[i], e.payload[i])
				}
			}
		}
		for src, q := range bySrc {
			if len(q) != 0 {
				t.Errorf("%s->%s: %d packets missing", src, dst, len(q))
			}
		}
	}
	if got != packets {
		t.Errorf("received %d, want %d", got, packets)
	}
}

// TestWideFlitDelivery exercises 16- and 32-bit flit widths end to end.
func TestWideFlitDelivery(t *testing.T) {
	for _, bits := range []int{16, 32} {
		cfg := Defaults(3, 3)
		cfg.FlitBits = bits
		clk, net := build(t, cfg)
		payload := []uint16{0xFFFF, 0x8000, 0x0001}
		m, err := net.Endpoint(Addr{0, 0}).Send(Addr{2, 2}, payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := clk.RunUntil(func() bool { return m.EjectCycle != 0 }, 100000); err != nil {
			t.Fatalf("%d-bit: %v", bits, err)
		}
		p, _ := net.Endpoint(Addr{2, 2}).Recv()
		for i, v := range payload {
			if p.Payload[i] != v {
				t.Errorf("%d-bit flit %d: %#x, want %#x", bits, i, p.Payload[i], v)
			}
		}
	}
}

// TestVCDTraceCapturesHandshake drives one packet while tracing the
// destination router and checks the waveform contains real activity.
func TestVCDTraceCapturesHandshake(t *testing.T) {
	net, err := New(Defaults(2, 2), "")
	if err != nil {
		t.Fatal(err)
	}
	clk := net.Clock()
	src, _ := net.NewEndpoint(Addr{0, 0})
	if _, err := net.NewEndpoint(Addr{1, 0}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	w := vcd.NewWriter(&sb)
	AttachVCD(net, w, Addr{1, 0})
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	m, err := src.Send(Addr{1, 0}, []uint16{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := clk.RunUntil(func() bool { return m.EjectCycle != 0 }, 10000); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"r10_W_tx", "r10_L_tx", "$enddefinitions", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q", want)
		}
	}
	// The handshake must toggle: at least a handful of change records.
	if strings.Count(out, "#") < 6 {
		t.Errorf("suspiciously few change records:\n%s", out)
	}
}

// TestRouterStatsMatchAcrossKernels: the span-integrated router stats
// (WaitCycles, BufferedFlitCycles accumulated lazily while a router
// sleeps through its routing delay) must equal the dense per-cycle
// accumulation exactly, with and without time warping.
func TestRouterStatsMatchAcrossKernels(t *testing.T) {
	run := func(k sim.Kernel) []RouterStats {
		cfg := Defaults(4, 1)
		net, err := New(cfg, k)
		if err != nil {
			t.Fatal(err)
		}
		clk := net.Clock()
		src, err := net.NewEndpoint(Addr{0, 0})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.NewEndpoint(Addr{3, 0}); err != nil {
			t.Fatal(err)
		}
		// Two small packets with a quiet span between them: the second
		// send keeps a later wake armed while routers sleep mid-delay.
		m1, err := src.Send(Addr{3, 0}, []uint16{1})
		if err != nil {
			t.Fatal(err)
		}
		if err := clk.RunUntil(func() bool { return m1.EjectCycle != 0 }, 100000); err != nil {
			t.Fatal(err)
		}
		if _, err := src.Send(Addr{3, 0}, []uint16{2, 3}); err != nil {
			t.Fatal(err)
		}
		if err := clk.RunUntilQuiescent(100000); err != nil {
			t.Fatal(err)
		}
		var out []RouterStats
		for x := 0; x < cfg.Width; x++ {
			out = append(out, net.Router(Addr{X: x, Y: 0}).Stats())
		}
		return out
	}
	ref := run("dense")
	for _, k := range []sim.Kernel{"nowarp", ""} {
		got := run(k)
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("kernel %q: router %d stats diverge:\n  dense %+v\n  got   %+v", k, i, ref[i], got[i])
			}
		}
	}
}

// TestFullBufferAcrossKernels: with depth-1 buffers and opposing flows
// fighting over one column, receivers run out of space constantly, so
// flits stall on backpressure mid-wormhole over and over. All 9 packets
// must arrive, and the per-router statistics and every packet's inject
// and eject cycles must be identical on the sparse, dense and no-warp
// kernels. The two activity-scheduled kernels must also reach
// quiescence on the same cycle; dense mode judges quiescence by Idle()
// alone, without the step a woken component needs to fall asleep
// again, so its stop cycle is not compared.
func TestFullBufferAcrossKernels(t *testing.T) {
	type obs struct {
		end    uint64
		stats  []RouterStats
		ledger []uint64 // (ID, inject, eject) per packet, by ID
	}
	run := func(k sim.Kernel) obs {
		cfg := Defaults(1, 4)
		cfg.BufDepth = 1
		net := buildOn(t, cfg, k)
		clk := net.Clock()
		payload := seq(40)
		for k := 0; k < 3; k++ {
			for _, f := range [][2]Addr{{{0, 0}, {0, 3}}, {{0, 3}, {0, 0}}, {{0, 1}, {0, 2}}} {
				if _, err := net.Endpoint(f[0]).Send(f[1], payload); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := clk.RunUntilQuiescent(1_000_000); err != nil {
			t.Fatal(err)
		}
		if net.Delivered() != 9 {
			t.Fatalf("kernel %q: delivered %d/9", k, net.Delivered())
		}
		o := obs{end: clk.Cycle()}
		for y := 0; y < 4; y++ {
			o.stats = append(o.stats, net.Router(Addr{0, y}).Stats())
		}
		ms := append([]*PacketMeta(nil), net.Completed()...)
		sort.Slice(ms, func(a, b int) bool { return ms[a].ID < ms[b].ID })
		for _, m := range ms {
			o.ledger = append(o.ledger, m.ID, m.InjectCycle, m.EjectCycle)
		}
		return o
	}
	ref := run("")
	for _, k := range []sim.Kernel{"dense", "nowarp"} {
		got := run(k)
		if k != "dense" && got.end != ref.end {
			t.Errorf("kernel %q: quiescent at cycle %d, sparse reference %d", k, got.end, ref.end)
		}
		for i := range ref.stats {
			if got.stats[i] != ref.stats[i] {
				t.Errorf("kernel %q: router %d stats diverge:\n  sparse %+v\n  got    %+v", k, i, ref.stats[i], got.stats[i])
			}
		}
		if !slices.Equal(got.ledger, ref.ledger) {
			t.Errorf("kernel %q: packet (ID, inject, eject) ledger diverges:\n  sparse %v\n  got    %v", k, ref.ledger, got.ledger)
		}
	}
}

// sendAt is an endpoint's owner that sends one packet to (1,0) in its
// Eval of cycle at, woken for it by a timer, and sleeps otherwise.
type sendAt struct {
	ep   *Endpoint
	at   uint64
	meta *PacketMeta
	err  error
}

func (s *sendAt) Eval() {
	if s.ep.clk.Cycle() == s.at {
		s.meta, s.err = s.ep.Send(Addr{1, 0}, []uint16{7})
	}
}
func (s *sendAt) Commit()    {}
func (s *sendAt) Idle() bool { return true }

// TestSendCommitsOnTheEdge: a Send lands in the injection queue at
// once, but its flits commit on the clock edge, so the endpoint
// presents the header in the step after the Send whichever of it and
// the sender evaluates first. A packet sent from outside the clock
// before the step of cycle c, or during that step by an owner
// registered after or before its endpoint, is injected (its header
// accepted) at cycle c+3 under every kernel.
func TestSendCommitsOnTheEdge(t *testing.T) {
	const c = 100
	for _, k := range []sim.Kernel{"", "nowarp", "dense"} {
		for _, how := range []string{"outside the clock", "owner after endpoint", "owner before endpoint"} {
			net, err := New(Defaults(2, 1), k)
			if err != nil {
				t.Fatal(err)
			}
			clk := net.Clock()
			s := &sendAt{at: c}
			register := func() { clk.Register(s).WakeAt(c + 1) }
			if how == "owner before endpoint" {
				register()
			}
			if s.ep, err = net.NewEndpoint(Addr{0, 0}); err != nil {
				t.Fatal(err)
			}
			if _, err := net.NewEndpoint(Addr{1, 0}); err != nil {
				t.Fatal(err)
			}
			if how == "owner after endpoint" {
				register()
			}
			if how == "outside the clock" {
				clk.Run(c)
				s.meta, s.err = s.ep.Send(Addr{1, 0}, []uint16{7})
			}
			if err := clk.RunUntilQuiescent(10_000); err != nil {
				t.Fatal(err)
			}
			if s.err != nil || s.meta == nil || net.Delivered() != 1 {
				t.Fatalf("kernel %q, sent from %s: send %v, %d delivered", k, how, s.err, net.Delivered())
			}
			if got := s.meta.InjectCycle; got != c+3 {
				t.Errorf("kernel %q, sent from %s in cycle %d: injected at cycle %d, want %d",
					k, how, c, got, c+3)
			}
		}
	}
}

// TestVCDTraceIdenticalUnderTimeWarp: warping over dead spans must not
// change the waveform dump — no wire can change during a skipped span,
// so the VCD output is byte-identical with warping on and off.
func TestVCDTraceIdenticalUnderTimeWarp(t *testing.T) {
	run := func(k sim.Kernel) string {
		net, err := New(Defaults(2, 2), k)
		if err != nil {
			t.Fatal(err)
		}
		clk := net.Clock()
		src, err := net.NewEndpoint(Addr{0, 0})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.NewEndpoint(Addr{1, 0}); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		w := vcd.NewWriter(&sb)
		AttachVCD(net, w, Addr{1, 0})
		if err := w.Begin(); err != nil {
			t.Fatal(err)
		}
		if _, err := src.Send(Addr{1, 0}, []uint16{4, 5, 6}); err != nil {
			t.Fatal(err)
		}
		if err := clk.RunUntilQuiescent(100000); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	warped, stepped := run(""), run("nowarp")
	if warped != stepped {
		t.Fatalf("VCD dumps diverge under time warp:\nwarped:\n%s\nstepped:\n%s", warped, stepped)
	}
}
