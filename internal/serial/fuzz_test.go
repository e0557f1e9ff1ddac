package serial

import (
	"bytes"
	"testing"

	"repro/internal/noc"
	"repro/internal/sim"
)

// FuzzUARTAgree checks the sleeping RX against refReceive, a per-cycle
// receiver that reads the line's level every cycle and shares no code
// with RX. It decodes its bytes (decodeUART) into a TX divisor, an RX
// divisor up to 2 off it, the frame lengths the RX owner's Need asks
// for, and bursts of bytes, inter-frame gaps and glitch pulses at
// chosen cycles. Under "", nowarp and dense, the RX must deliver the
// reference's bytes in order, each byte that closes a frame on the
// reference's cycle and none before it, and after one final woken step
// every byte and the reference's FrameError count. The seed corpus is
// testdata/fuzz/FuzzUARTAgree; each random-N-exact entry is random-N
// with Need unset, so it holds every byte to the reference's cycle.
func FuzzUARTAgree(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeUART(data)
		for _, k := range []sim.Kernel{"", "nowarp", "dense"} {
			got, errs, hist, end := runUART(t, k, c)
			want, wantErrs := refReceive(hist, c.rxDiv, end)
			if i, ok := agree(c, got, want); !ok || errs != wantErrs {
				t.Fatalf("kernel %q, case %+v, byte %d:\n  RX        %v, %d frame errors\n  reference %v, %d frame errors",
					k, c, i, got, errs, want, wantErrs)
			}
		}
	})
}

// agree reports whether got delivers want's bytes in order, none before
// its cycle and each that closes one of c's frames on its cycle, and if
// not, the first byte that differs.
func agree(c uartCase, got, want []gotByte) (int, bool) {
	for i := range max(len(got), len(want)) {
		if i >= len(got) || i >= len(want) || got[i].b != want[i].b || got[i].at < want[i].at ||
			c.closes(i+1) && got[i].at != want[i].at {
			return i, false
		}
	}
	return 0, true
}

// uartCase is one FuzzUARTAgree input: the TX's divisor, the RX's (up
// to 2 off it), the lengths of the frames the RX owner receives, in a
// cycle (none: every byte is a frame, and Need stays unset), and the
// driver's events.
type uartCase struct {
	txDiv, rxDiv int
	frames       []int
	events       []uartEvent
}

// closes reports whether the n-th byte received closes a frame.
func (c uartCase) closes(n int) bool { return c.need(n-1) == 1 }

// need is the owner's RX.Need after n bytes: the bytes, the next one
// counted, up to the end of the frame under way.
func (c uartCase) need(n int) int {
	if len(c.frames) == 0 {
		return 1
	}
	total := 0
	for _, l := range c.frames {
		total += l
	}
	n %= total
	for _, l := range c.frames {
		if n < l {
			return l - n
		}
		n -= l
	}
	panic("unreachable")
}

// uartEvent is one driver action, gap cycles after the previous one:
// kind 0 and 1 queue bytes, 2 sets the inter-frame gap to arg cycles
// and 3 holds the line low for arg cycles, a glitch.
type uartEvent struct {
	gap   uint64
	kind  int
	arg   int
	bytes []byte
}

// decodeUART folds arbitrary bytes into a uartCase: two bytes for the
// divisors and the frame lengths, then up to 16 events of three bytes
// each, a queue event followed by its 1-12 bytes. The second byte's
// residue mod 5 sets the RX divisor and its quotient seeds the frame
// lengths, 1 to 8 bytes each: a quotient of 0 sets none.
func decodeUART(data []byte) uartCase {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	c := uartCase{txDiv: 4 + int(next()%13)}
	b := next()
	c.rxDiv = c.txDiv + int(b%5) - 2
	if seed := b / 5; seed > 0 {
		rng := sim.NewRand(uint64(seed))
		for n := 1 + rng.Intn(4); n > 0; n-- {
			c.frames = append(c.frames, 1+rng.Intn(8))
		}
	}
	for len(data) > 0 && len(c.events) < 16 {
		op, arg, gap := next(), next(), next()
		e := uartEvent{gap: uint64(gap)*uint64(c.txDiv)/2 + uint64(op>>2), kind: int(op % 4)}
		switch e.kind {
		case 0, 1:
			for n := 1 + int(arg%12); n > 0; n-- {
				e.bytes = append(e.bytes, next())
			}
		case 2:
			e.arg = max(int(arg%48)-16, 0)
		case 3:
			e.arg = 1 + int(arg)%(2*c.txDiv)
		}
		c.events = append(c.events, e)
	}
	return c
}

// span bounds the cycles c's events take to play out and drain.
func (c uartCase) span() uint64 {
	s := uint64(40*c.txDiv + 100)
	for _, e := range c.events {
		s += e.gap + uint64(len(e.bytes)*(10*c.txDiv+32))
		if e.kind == 3 {
			s += uint64(e.arg)
		}
	}
	return s
}

// eventDriver plays a uartCase's events. It hands its TX one burst at
// a time: up to six frames back to back or, while its inter-frame gap
// is positive, one frame, and after a burst it keeps the rest for gap
// idle cycles, counted from the tick that ends the burst. Glitching,
// it sets the line low instead of ticking the TX, as glitchDriver
// does. It sleeps while no glitch holds the line, on timers for its
// next event, its TX's burst end and its gap's end.
type eventDriver struct {
	clk      *sim.Clock
	self     sim.Handle
	line     *Line
	tx       *TX
	events   []uartEvent
	at       uint64 // the tick of events[0]
	lowUntil uint64 // the last tick of the glitch under way
	queue    []byte // the bytes not yet handed to the TX
	gap      int    // the idle cycles after each burst
	gapEnd   uint64 // the first tick at which a burst may start
}

func (d *eventDriver) Eval() {
	now := d.clk.Cycle() + 1
	for len(d.events) > 0 && d.at <= now {
		switch e := d.events[0]; e.kind {
		case 0, 1:
			d.queue = append(d.queue, e.bytes...)
		case 2:
			d.gap = e.arg
		case 3:
			d.lowUntil = now + uint64(e.arg) - 1
		}
		d.events = d.events[1:]
		if len(d.events) > 0 {
			d.at += d.events[0].gap
		}
	}
	if len(d.events) > 0 {
		d.self.WakeAt(d.at)
	}
	if now <= d.lowUntil {
		d.line.Set(Wave{N: 1})
		return
	}
	if d.tx.frames > 0 {
		if now < d.tx.end {
			return
		}
		d.gapEnd = now + uint64(d.gap) // the burst ends at this tick
	}
	if len(d.queue) > 0 && now >= d.gapEnd {
		n := min(len(d.queue), maxBurst)
		if d.gap > 0 {
			n = 1
		}
		d.tx.Queue(d.queue[:n]...)
		d.queue = d.queue[n:]
	}
	d.tx.Tick()
	if len(d.queue) > 0 && now < d.gapEnd {
		d.self.WakeAt(d.gapEnd)
	}
}
func (d *eventDriver) Commit()    {}
func (d *eventDriver) Idle() bool { return d.clk.Cycle() > d.lowUntil }

// gotByte is one received byte and the tick its Recv ran in.
type gotByte struct {
	b  byte
	at uint64
}

// lineChange is a wave the line shows from cycle at on.
type lineChange struct {
	at uint64
	w  Wave
}

// runUART plays c under kernel k with a sleeping RX on a watching
// owner, then wakes the owner for one final step. It returns the bytes
// the RX received, its frame errors, the line's history and the last
// cycle.
func runUART(t *testing.T, k sim.Kernel, c uartCase) (got []gotByte, errs uint64, hist []lineChange, end uint64) {
	clk, err := sim.ParseKernel(k)
	if err != nil {
		t.Fatal(err)
	}
	line := NewLine(clk)
	d := &eventDriver{clk: clk, line: line, events: c.events}
	d.self = clk.Register(d)
	d.tx = NewTX(line, c.txDiv, d.self)
	if len(c.events) > 0 {
		d.at = 1 + c.events[0].gap
	}
	o := &sleepyRX{}
	h := clk.Register(o)
	o.rx = NewRX(line, c.rxDiv, h)
	sim.Watch(line, h, 0)
	o.rx.Recv = func(b byte) { got = append(got, gotByte{b, clk.Cycle() + 1}) }
	if len(c.frames) > 0 {
		o.rx.Need = func() int { return c.need(len(got)) }
	}
	last := line.Get()
	clk.Probe(func(cy uint64) {
		if w := line.Get(); w != last {
			hist = append(hist, lineChange{cy, w})
			last = w
		}
	})
	clk.Run(c.span())
	h.Wake()
	clk.Step()
	return got, o.rx.FrameError, hist, clk.Cycle()
}

// refReceive is the per-cycle receiver the sleeping RX must agree
// with, written apart from it. At each tick n it reads the level the
// line showed at cycle n-1. Idle, it starts a frame on a low level,
// unless a frame closed at this tick. A frame samples at n+div/2+k*div
// for k = 0..9: the start bit (high: a frame error, back to idle),
// eight data bits, LSB first, and the stop bit (high: the byte, low: a
// frame error).
func refReceive(hist []lineChange, div int, end uint64) (got []gotByte, errs uint64) {
	busy, k, data, at := false, 0, byte(0), uint64(0)
	w := Wave{Bits: 1, N: 1}
	for n := uint64(1); n <= end; n++ {
		for len(hist) > 0 && hist[0].at <= n-1 {
			w = hist[0].w
			hist = hist[1:]
		}
		// Bit i of w, Div cycles each, then the last one for good.
		i := uint64(w.N) - 1
		if w.Div > 0 && (n-1-w.At)/w.Div < i {
			i = (n - 1 - w.At) / w.Div
		}
		high := w.Bits>>i&1 == 1
		closed := false
		if busy && at == n {
			switch {
			case k == 0 && high:
				busy, closed = false, true
				errs++
			case k == 9:
				busy, closed = false, true
				if high {
					got = append(got, gotByte{data, n})
				} else {
					errs++
				}
			default:
				if k > 0 && high {
					data |= 1 << (k - 1)
				}
				k++
				at += uint64(div)
			}
		}
		if !busy && !closed && !high {
			busy, k, data, at = true, 0, 0, n+uint64(div/2)
		}
	}
	return got, errs
}

// FuzzFrameParsers feeds arbitrary bytes through the Serial IP's
// command parser and the host's upstream parser. Neither may panic,
// need() must stay positive, no frame may complete before need() bytes
// have arrived (the bound RX.Need wakes its owner by), and a frame that
// completes must encode back to the bytes it came from whenever its
// message encodes at all. The seeds are EncodeDown and EncodeUp frames
// of every command, back to back and after a byte no command starts.
func FuzzFrameParsers(f *testing.F) {
	tgt := noc.Addr{X: 1, Y: 0}
	var down, up []byte
	for _, m := range []*noc.Message{
		{Svc: noc.SvcReadMem, Addr: 0x0020, Count: 1},
		{Svc: noc.SvcWriteMem, Addr: 0x0100, Words: []uint16{0xAA55, 0x1234, 0}},
		{Svc: noc.SvcActivate},
		{Svc: noc.SvcScanfReturn, Words: []uint16{0x00FF}},
	} {
		bs, err := EncodeDown(tgt, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bs)
		down = append(down, bs...)
	}
	for _, m := range []*noc.Message{
		{Svc: noc.SvcReadReturn, Src: tgt, Addr: 0x0020, Words: []uint16{7, 0xFFFF}},
		{Svc: noc.SvcPrintf, Src: tgt, Bytes: []byte("hi")},
		{Svc: noc.SvcScanf, Src: tgt},
	} {
		bs, err := EncodeUp(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bs)
		up = append(up, bs...)
	}
	// Frames of no words or bytes, which the encoders refuse or
	// produce: the shortest a header can announce.
	f.Add([]byte{CmdWrite, 0x10, 0, 0x01, 0x00})
	f.Add([]byte{UpReadReturn, 0x10, 0, 0x01, 0x00})
	f.Add([]byte{UpPrintf, 0x10, 0})
	f.Add(down)
	f.Add(up)
	f.Add(append([]byte{0x7F}, down...))
	f.Add(append([]byte{0x7F}, up...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var dp downParser
		checkParser(t, "downParser", data, dp.need, func(b byte) ([]byte, bool) {
			m, tgt, ok := dp.Feed(b)
			if !ok {
				return nil, false
			}
			bs, err := EncodeDown(tgt, m)
			if err != nil {
				return nil, true
			}
			return bs, true
		}, func() uint64 { return dp.Errors })
		var upp UpParser
		checkParser(t, "UpParser", data, upp.Need, func(b byte) ([]byte, bool) {
			m, ok := upp.Feed(b)
			if !ok {
				return nil, false
			}
			bs, err := EncodeUp(m)
			if err != nil {
				return nil, true
			}
			return bs, true
		}, func() uint64 { return upp.Errors })
	})
}

// checkParser feeds data to one parser through feed, which reports a
// completed frame and its message encoded again (nil if it does not
// encode), checking FuzzFrameParsers' invariants against need and the
// parser's error count.
func checkParser(t *testing.T, name string, data []byte, need func() int,
	feed func(byte) ([]byte, bool), errCount func() uint64) {
	t.Helper()
	var frame []byte // the bytes since the last frame or dropped byte
	left := need()
	for i, b := range data {
		if left < 1 {
			t.Fatalf("%s: need() = %d after %d bytes", name, left, i)
		}
		frame = append(frame, b)
		errs := errCount()
		enc, done := feed(b)
		switch {
		case done && left > 1:
			t.Fatalf("%s: byte %d completes a frame that need() said takes %d more bytes", name, i, left)
		case done && enc != nil && !bytes.Equal(enc, frame):
			t.Fatalf("%s: frame % x encodes back as % x", name, frame, enc)
		case done || errCount() != errs:
			frame, left = frame[:0], need()
		default:
			left--
			if n := need(); n < left {
				t.Fatalf("%s: need() fell from %d to %d after byte %d", name, left+1, n, i)
			} else {
				left = n
			}
		}
	}
}
