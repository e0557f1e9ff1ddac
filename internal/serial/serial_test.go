package serial

import (
	"testing"
	"testing/quick"

	"repro/internal/noc"
	"repro/internal/sim"
)

// uartPair wires a TX to an RX over one line in a fresh clock domain.
func uartPair(div int) (*sim.Clock, *TX, *RX, *[]byte) {
	clk := sim.NewClock()
	line := NewLine(clk)
	d := newUARTDriver(clk, line, div, line, div)
	got := &[]byte{}
	d.rx.Recv = func(b byte) { *got = append(*got, b) }
	return clk, d.tx, d.rx, got
}

// uartDriver ticks a TX and an RX as one component that owns both and
// never sleeps, so they step every cycle.
type uartDriver struct {
	tx *TX
	rx *RX
}

// newUARTDriver registers a driver on clk for a TX on txLine and an RX
// on rxLine, at the given divisors.
func newUARTDriver(clk *sim.Clock, txLine *Line, txDiv int, rxLine *Line, rxDiv int) *uartDriver {
	d := &uartDriver{}
	h := clk.Register(d)
	d.tx, d.rx = NewTX(txLine, txDiv, h), NewRX(rxLine, rxDiv, h)
	return d
}

func (d *uartDriver) Eval()   { d.tx.Tick(); d.rx.Tick() }
func (d *uartDriver) Commit() {}

func TestUARTByteTransfer(t *testing.T) {
	for _, div := range []int{4, 8, 16, 33} {
		clk, tx, _, got := uartPair(div)
		tx.Queue(0x55, 0x00, 0xFF, 'A')
		clk.Run(uint64(div * 10 * 6))
		want := []byte{0x55, 0x00, 0xFF, 'A'}
		if len(*got) != len(want) {
			t.Fatalf("div %d: received %d bytes, want %d", div, len(*got), len(want))
		}
		for i, b := range want {
			if (*got)[i] != b {
				t.Errorf("div %d byte %d: %#02x, want %#02x", div, i, (*got)[i], b)
			}
		}
	}
}

func TestUARTPropertyAllBytes(t *testing.T) {
	if err := quick.Check(func(b byte) bool {
		clk, tx, _, got := uartPair(8)
		tx.Queue(b)
		clk.Run(8 * 10 * 2)
		return len(*got) == 1 && (*got)[0] == b
	}, &quick.Config{MaxCount: 64}); err != nil {
		t.Error(err)
	}
}

func TestUARTGapKeepsLineIdle(t *testing.T) {
	clk, tx, _, got := uartPair(8)
	tx.Gap = 32
	tx.Queue(1, 2)
	clk.Run(8*10*2 + 100)
	if len(*got) != 2 {
		t.Fatalf("received %d bytes", len(*got))
	}
	if tx.Sent != 2 {
		t.Errorf("tx.Sent = %d", tx.Sent)
	}
}

func TestRXIgnoresTrafficWithoutDivisor(t *testing.T) {
	clk := sim.NewClock()
	line := NewLine(clk)
	d := newUARTDriver(clk, line, 8, line, 0) // receiver's divisor unknown
	n := 0
	d.rx.Recv = func(byte) { n++ }
	d.tx.Queue(0xAA)
	clk.Run(8 * 10 * 2)
	if n != 0 {
		t.Error("RX decoded without a divisor")
	}
}

func TestDownParserFigureNineExample(t *testing.T) {
	// "00 01 01 00 20": read, target IP 01, count 1, address 0x0020.
	var p downParser
	var msg *noc.Message
	var tgt noc.Addr
	for _, b := range []byte{0x00, 0x01, 0x01, 0x00, 0x20} {
		if m, a, ok := p.Feed(b); ok {
			msg, tgt = m, a
		}
	}
	if msg == nil {
		t.Fatal("frame not decoded")
	}
	if msg.Svc != noc.SvcReadMem || msg.Count != 1 || msg.Addr != 0x0020 {
		t.Errorf("decoded %+v", msg)
	}
	if tgt != (noc.Addr{X: 0, Y: 1}) {
		t.Errorf("target = %s, want 01", tgt)
	}
}

func TestDownParserResync(t *testing.T) {
	var p downParser
	// Garbage command byte, then a valid activate frame.
	frames := 0
	for _, b := range []byte{0xEE, CmdActivate, 0x10} {
		if _, _, ok := p.Feed(b); ok {
			frames++
		}
	}
	if frames != 1 || p.Errors != 1 {
		t.Errorf("frames=%d errors=%d", frames, p.Errors)
	}
}

func TestEncodeDownDecodeRoundTrip(t *testing.T) {
	msgs := []*noc.Message{
		{Svc: noc.SvcReadMem, Addr: 0x0123, Count: 9},
		{Svc: noc.SvcWriteMem, Addr: 0x0040, Words: []uint16{1, 0xFFFF, 3}},
		{Svc: noc.SvcActivate},
		{Svc: noc.SvcScanfReturn, Words: []uint16{0xBEEF}},
	}
	tgt := noc.Addr{X: 1, Y: 0}
	for _, m := range msgs {
		bs, err := EncodeDown(tgt, m)
		if err != nil {
			t.Fatalf("%s: %v", m.Svc, err)
		}
		var p downParser
		var got *noc.Message
		var gotTgt noc.Addr
		for _, b := range bs {
			if mm, a, ok := p.Feed(b); ok {
				got, gotTgt = mm, a
			}
		}
		if got == nil || got.Svc != m.Svc || gotTgt != tgt {
			t.Fatalf("%s: round trip failed: %+v", m.Svc, got)
		}
		if got.Addr != m.Addr || got.Count != m.Count || len(got.Words) != len(m.Words) {
			t.Errorf("%s: fields lost: %+v vs %+v", m.Svc, got, m)
		}
	}
}

func TestEncodeUpDecodeRoundTrip(t *testing.T) {
	msgs := []*noc.Message{
		{Svc: noc.SvcReadReturn, Src: noc.Addr{X: 1, Y: 1}, Addr: 7, Words: []uint16{10, 20}},
		{Svc: noc.SvcPrintf, Src: noc.Addr{X: 0, Y: 1}, Bytes: []byte("hi")},
		{Svc: noc.SvcScanf, Src: noc.Addr{X: 1, Y: 0}},
	}
	for _, m := range msgs {
		bs, err := EncodeUp(m)
		if err != nil {
			t.Fatalf("%s: %v", m.Svc, err)
		}
		p := NewUpParser()
		var got *noc.Message
		for _, b := range bs {
			if mm, ok := p.Feed(b); ok {
				got = mm
			}
		}
		if got == nil || got.Svc != m.Svc || got.Src != m.Src {
			t.Fatalf("%s round trip failed: %+v", m.Svc, got)
		}
	}
}

func TestEncodeErrors(t *testing.T) {
	if _, err := EncodeUp(&noc.Message{Svc: noc.SvcActivate}); err == nil {
		t.Error("activate encoded upstream")
	}
	if _, err := EncodeDown(noc.Addr{}, &noc.Message{Svc: noc.SvcPrintf}); err == nil {
		t.Error("printf encoded downstream")
	}
	if _, err := EncodeDown(noc.Addr{}, &noc.Message{Svc: noc.SvcReadMem, Count: 0}); err == nil {
		t.Error("zero-count read encoded")
	}
	if _, err := EncodeDown(noc.Addr{}, &noc.Message{Svc: noc.SvcScanfReturn, Words: []uint16{1, 2}}); err == nil {
		t.Error("two-word scanf return encoded")
	}
}

// TestSerialIPAutobaudAndFrames drives the real Serial IP with a TX on
// the host side of the line.
func TestSerialIPAutobaudAndFrames(t *testing.T) {
	clk := sim.NewClock()
	net, err := noc.New(clk, noc.Defaults(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	rxd := NewLine(clk)
	txd := NewLine(clk)
	ip, err := NewIP(net, noc.Addr{X: 0, Y: 0}, rxd, txd)
	if err != nil {
		t.Fatal(err)
	}
	// A raw endpoint plays the target IP.
	tgt, err := net.NewEndpoint(noc.Addr{X: 1, Y: 0})
	if err != nil {
		t.Fatal(err)
	}
	const div = 12
	hostTx := newUARTDriver(clk, rxd, div, txd, div).tx
	hostTx.Gap = 4 * div

	hostTx.Queue(SyncByte)
	if err := clk.RunUntil(ip.Synchronized, 10*div*20); err != nil {
		t.Fatal("auto-baud never locked:", err)
	}
	if ip.Baud() != div {
		t.Errorf("detected divisor = %d, want %d", ip.Baud(), div)
	}
	hostTx.Gap = 0
	// Send an activate command to IP 10 and expect the packet there.
	bs, err := EncodeDown(noc.Addr{X: 1, Y: 0}, &noc.Message{Svc: noc.SvcActivate})
	if err != nil {
		t.Fatal(err)
	}
	hostTx.Queue(bs...)
	var got *noc.Message
	err = clk.RunUntil(func() bool {
		m, ok, err := tgt.RecvMessage()
		if err != nil {
			t.Fatal(err)
		}
		got = m
		return ok
	}, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got.Svc != noc.SvcActivate {
		t.Errorf("received %s", got.Svc)
	}
	if ip.FramesToNoC != 1 {
		t.Errorf("FramesToNoC = %d", ip.FramesToNoC)
	}
}

func TestSerialIPSplitsLargeWrites(t *testing.T) {
	clk := sim.NewClock()
	net, err := noc.New(clk, noc.Defaults(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	rxd := NewLine(clk)
	txd := NewLine(clk)
	ip, err := NewIP(net, noc.Addr{X: 0, Y: 0}, rxd, txd)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := net.NewEndpoint(noc.Addr{X: 1, Y: 0})
	if err != nil {
		t.Fatal(err)
	}
	const div = 8
	hostTx := newUARTDriver(clk, rxd, div, txd, div).tx
	hostTx.Gap = 4 * div
	hostTx.Queue(SyncByte)
	if err := clk.RunUntil(ip.Synchronized, 10*div*20); err != nil {
		t.Fatal(err)
	}
	hostTx.Gap = 0
	// 200 words exceed the 125-word packet limit: expect 2 packets.
	words := make([]uint16, 200)
	for i := range words {
		words[i] = uint16(i)
	}
	bs, err := EncodeDown(noc.Addr{X: 1, Y: 0}, &noc.Message{Svc: noc.SvcWriteMem, Addr: 0, Words: words})
	if err != nil {
		t.Fatal(err)
	}
	hostTx.Queue(bs...)
	var msgs []*noc.Message
	err = clk.RunUntil(func() bool {
		for {
			m, ok, err := tgt.RecvMessage()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			msgs = append(msgs, m)
		}
		return len(msgs) == 2
	}, 5_000_000)
	if err != nil {
		t.Fatalf("got %d packets: %v", len(msgs), err)
	}
	if len(msgs[0].Words)+len(msgs[1].Words) != 200 {
		t.Errorf("split lost words: %d + %d", len(msgs[0].Words), len(msgs[1].Words))
	}
	if msgs[1].Addr != uint16(len(msgs[0].Words)) {
		t.Errorf("second chunk address = %d", msgs[1].Addr)
	}
	for i, m := range msgs {
		for j, w := range m.Words {
			if w != uint16(int(m.Addr)+j) {
				t.Fatalf("chunk %d word %d = %d", i, j, w)
			}
		}
	}
}

// glitchDriver injects a short low pulse on the line, then transmits.
// It owns its TX and RX and never sleeps.
type glitchDriver struct {
	line                *Line
	rx                  *RX
	tx                  *TX
	cycle               int
	glitchAt, glitchLen int
}

// newGlitchDriver registers a driver whose pulse spans cycles 5 to 7,
// with a TX and an RX on line at div cycles per bit.
func newGlitchDriver(clk *sim.Clock, line *Line, div int) *glitchDriver {
	d := &glitchDriver{line: line, glitchAt: 5, glitchLen: 3}
	h := clk.Register(d)
	d.tx, d.rx = NewTX(line, div, h), NewRX(line, div, h)
	return d
}

func (d *glitchDriver) Eval() {
	d.cycle++
	if d.cycle >= d.glitchAt && d.cycle < d.glitchAt+d.glitchLen {
		d.line.Set(Wave{N: 1}) // noise pulse
	} else {
		d.tx.Tick()
	}
	d.rx.Tick()
}
func (d *glitchDriver) Commit() {}

func TestRXRecoversFromLineGlitch(t *testing.T) {
	// A sub-bit noise pulse must produce a frame error (start bit
	// vanishes at the mid-bit sample) and the next clean byte must
	// still decode.
	clk := sim.NewClock()
	line := NewLine(clk)
	d := newGlitchDriver(clk, line, 16)
	var got []byte
	d.rx.Recv = func(b byte) { got = append(got, b) }
	clk.Run(200) // glitch happens with an idle transmitter
	if d.rx.FrameError == 0 {
		t.Error("glitch not detected as frame error")
	}
	d.tx.Queue(0xA5)
	clk.Run(16 * 10 * 2)
	if len(got) != 1 || got[0] != 0xA5 {
		t.Fatalf("post-glitch byte = %v", got)
	}
}

// sleepyRX is an activity-scheduled RX owner: it ticks its receiver
// only when woken (by the watched line or the RX's own timers) and
// sleeps after every Eval.
type sleepyRX struct {
	rx *RX
}

func (d *sleepyRX) Eval()      { d.rx.Tick() }
func (d *sleepyRX) Commit()    {}
func (d *sleepyRX) Idle() bool { return true }

// TestBoundRXGlitchMatchesReference: a glitched start bit whose frame
// error is only discovered by a deferred catch-up sample must not eat
// the genuine start edge that triggered the catch-up — a receiver whose
// owner sleeps must decode exactly what the reference, owned by the
// glitch driver that ticks it every cycle, decodes, at the same cycles.
func TestBoundRXGlitchMatchesReference(t *testing.T) {
	const div = 16
	type result struct {
		bytes  []byte
		cycles []uint64
		errs   uint64
	}
	run := func(sleepy bool) result {
		clk := sim.NewClock()
		line := NewLine(clk)
		d := newGlitchDriver(clk, line, div)
		rx := d.rx
		if sleepy {
			// Split roles: the glitch/TX side stays per-cycle (with an
			// inert receiver of its own), the RX under test is a
			// separate sleeping component woken only by the line and
			// its timers.
			d.rx.SetDiv(0)
			s := &sleepyRX{}
			h := clk.Register(s)
			rx = NewRX(line, div, h)
			s.rx = rx
			sim.Watch(line, h, 0)
		}
		var res result
		rx.Recv = func(b byte) {
			res.bytes = append(res.bytes, b)
			res.cycles = append(res.cycles, clk.Cycle()+1)
		}
		// Glitch with an idle transmitter, then — before the stale
		// stop-bit deadline of the aborted frame has passed — transmit
		// a byte with no mid-frame transitions (0x00), so the receiver
		// must recover the real start edge from the catch-up path.
		clk.Run(20)
		d.tx.Queue(0x00, 0xA5)
		clk.Run(div*10*3 + 100)
		res.errs = rx.FrameError
		return res
	}
	ref := run(false)
	got := run(true)
	if ref.errs == 0 {
		t.Fatal("reference saw no frame error; glitch scenario not exercised")
	}
	if len(ref.bytes) != 2 || ref.bytes[0] != 0x00 || ref.bytes[1] != 0xA5 {
		t.Fatalf("reference decoded %v, want [0x00 0xA5]", ref.bytes)
	}
	if got.errs != ref.errs {
		t.Errorf("frame errors: sleeping %d, reference %d", got.errs, ref.errs)
	}
	if len(got.bytes) != len(ref.bytes) {
		t.Fatalf("sleeping receiver decoded %v, reference %v", got.bytes, ref.bytes)
	}
	for i := range ref.bytes {
		if got.bytes[i] != ref.bytes[i] || got.cycles[i] != ref.cycles[i] {
			t.Errorf("byte %d: sleeping (%#02x at %d), reference (%#02x at %d)",
				i, got.bytes[i], got.cycles[i], ref.bytes[i], ref.cycles[i])
		}
	}
}
