package serial

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// FuzzUARTAgree checks the sleeping RX against refReceive, a per-cycle
// receiver that reads the line's level every cycle and shares no code
// with RX. It decodes its bytes (decodeUART) into a TX divisor, an RX
// divisor up to 2 off it, and bursts of bytes, Gap settings and glitch
// pulses at chosen cycles. Under "", nowarp and dense, every Recv (byte
// and cycle) and the FrameError count after one final woken step must
// equal the reference's. The seed corpus is testdata/fuzz/FuzzUARTAgree.
func FuzzUARTAgree(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeUART(data)
		for _, k := range []sim.Kernel{"", "nowarp", "dense"} {
			got, errs, hist, end := runUART(t, k, c)
			want, wantErrs := refReceive(hist, c.rxDiv, end)
			if !reflect.DeepEqual(got, want) || errs != wantErrs {
				t.Fatalf("kernel %q, case %+v:\n  RX        %v, %d frame errors\n  reference %v, %d frame errors",
					k, c, got, errs, want, wantErrs)
			}
		}
	})
}

// uartCase is one FuzzUARTAgree input: the TX's divisor, the RX's (up
// to 2 off it) and the driver's events.
type uartCase struct {
	txDiv, rxDiv int
	events       []uartEvent
}

// uartEvent is one driver action, gap cycles after the previous one:
// kind 0 and 1 queue bytes on the TX, 2 sets its Gap to arg cycles and
// 3 holds the line low for arg cycles, a glitch.
type uartEvent struct {
	gap   uint64
	kind  int
	arg   int
	bytes []byte
}

// decodeUART folds arbitrary bytes into a uartCase: two bytes for the
// divisors, then up to 16 events of three bytes each, a queue event
// followed by its 1-12 bytes.
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
	c.rxDiv = c.txDiv + int(next()%5) - 2
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

// eventDriver plays a uartCase's events: it queues bytes on its TX,
// sets the TX's Gap and, glitching, sets the line low instead of
// ticking the TX, as glitchDriver does. It sleeps while its TX is
// dormant and no glitch holds the line, on a timer for its next event.
type eventDriver struct {
	clk      *sim.Clock
	self     sim.Handle
	line     *Line
	tx       *TX
	events   []uartEvent
	at       uint64 // the tick of events[0]
	lowUntil uint64 // the last tick of the glitch under way
}

func (d *eventDriver) Eval() {
	now := d.clk.Cycle() + 1
	for len(d.events) > 0 && d.at <= now {
		switch e := d.events[0]; e.kind {
		case 0, 1:
			d.tx.Queue(e.bytes...)
		case 2:
			d.tx.Gap = e.arg
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
	} else {
		d.tx.Tick()
	}
}
func (d *eventDriver) Commit()    {}
func (d *eventDriver) Idle() bool { return d.clk.Cycle() > d.lowUntil && d.tx.Dormant() }

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
