// Package serial implements the MultiNoC Serial IP core (§2.2) and the
// RS-232 machinery under it: a UART line model (start bit, eight data
// bits LSB-first, stop bit), auto-baud detection from the 0x55
// synchronization byte (§4), and the framing that turns host command
// bytes into NoC service packets and back.
//
// A line carries whole frames. A transmitter stages a Wave, the levels
// of up to six back-to-back frames, in one Set and sleeps until the
// burst ends. A receiver is the per-cycle receiver run lazily: each
// Tick replays it over the cycles since the previous Tick from the
// waves the line showed, and it arms a WakeAt timer for its owner only
// where a byte completes. Its owner watches the line, so each new wave
// wakes it. Between those events both owners sleep and the time-warp
// kernel skips the cycles outright. An owner that never sleeps and
// ticks them every cycle drives the same state machines, and the
// receiver then delivers the same bytes on the same cycles.
package serial

import (
	"math/bits"

	"repro/internal/sim"
)

// A Wave is what a Line shows from cycle At on: the N bits of Bits,
// least significant first, Div cycles each, then the last bit's level
// for good. A constant level is a one-bit wave from cycle 0, so staging
// it again is no change.
type Wave struct {
	At, Div uint64
	Bits    uint64
	N       uint8
}

// rest is the line at rest: idle high.
var rest = Wave{Bits: 1, N: 1}

// bit returns the index of the bit w shows at cycle c >= w.At.
func (w Wave) bit(c uint64) uint {
	if c-w.At >= uint64(w.N-1)*w.Div {
		return uint(w.N - 1)
	}
	return uint((c - w.At) / w.Div)
}

// level reports the level w shows at cycle c >= w.At (true is high).
func (w Wave) level(c uint64) bool { return w.Bits>>w.bit(c)&1 != 0 }

// find returns the first cycle from c >= w.At on at which w shows
// level v, and false if it never does.
func (w Wave) find(c uint64, v bool) (uint64, bool) {
	m := w.Bits
	if !v {
		m = ^m
	}
	i := w.bit(c)
	if m &= (1<<w.N - 1) >> i << i; m == 0 {
		return 0, false
	}
	if j := uint(bits.TrailingZeros64(m)); j != i {
		return w.At + uint64(j)*w.Div, true
	}
	return c, true
}

// Line is one RS-232 signal (idle high). The paper's tx/rx pair is two
// Lines, one per direction.
type Line = sim.Wire[Wave]

// NewLine creates an idle-high line in clk's domain.
func NewLine(clk *sim.Clock) *Line {
	return sim.NewWire(clk, rest)
}

// maxBurst is the most frames one Wave holds: 60 of its 64 bits.
const maxBurst = 6

// TX serializes bytes onto a line at a fixed divisor (clock cycles per
// bit). The owning component calls Tick once per cycle it is awake and
// Queue to append bytes; Queue is safe during the owner's Eval. Tick
// stages up to six queued frames back to back in one Wave, or one while
// Gap is positive, and arms a WakeAt timer for the owner at the burst's
// end, so the owner sleeps through the burst.
type TX struct {
	line  *Line
	clk   *sim.Clock
	owner sim.Handle // woken at the end of each burst
	div   int

	queue  []byte
	frames int    // frames of the burst on the line; 0 between bursts
	end    uint64 // cycle at which that burst ends
	gapEnd uint64 // cycle before which no new byte may start

	// Gap inserts idle cycles after each byte (used by the host to
	// separate the auto-baud byte from the first frame).
	Gap int

	// Sent counts the frames sent, brought up to date at each burst's
	// end.
	Sent uint64
}

// NewTX returns a transmitter for line at div clock cycles per bit,
// owned (ticked) by the component whose Register returned owner. It
// arms a WakeAt timer for the owner at the end of every burst, so the
// owner may report Idle in between (see Dormant).
func NewTX(line *Line, div int, owner sim.Handle) *TX {
	return &TX{line: line, clk: line.Clock(), div: div, owner: owner}
}

// Queue appends bytes for transmission.
func (t *TX) Queue(bs ...byte) { t.queue = append(t.queue, bs...) }

// Idle reports whether the transmitter has fully drained: nothing
// queued, no burst on the line and any post-byte gap elapsed.
func (t *TX) Idle() bool {
	return t.frames == 0 && len(t.queue) == 0 && t.clk.Cycle()+1 >= t.gapEnd
}

// Dormant reports whether the transmitter needs no Evals until an
// already-armed timer fires (mid-burst, mid-gap) or it is fully idle:
// its owner may sleep whenever it is Dormant.
func (t *TX) Dormant() bool {
	if t.frames > 0 || t.clk.Cycle()+1 < t.gapEnd {
		return true // burst or gap timer armed
	}
	return len(t.queue) == 0
}

// QueueLen reports how many bytes await transmission.
func (t *TX) QueueLen() int { return len(t.queue) }

// Div reports the configured divisor.
func (t *TX) Div() int { return t.div }

// restLine stages the line at rest unless the staged wave already ends
// high, so an idle transmitter does not keep its line on the kernel's
// dirty list.
func (t *TX) restLine() {
	if w := t.line.Peek(); w.Bits>>(w.N-1)&1 == 0 {
		t.line.Set(rest)
	}
}

// Tick advances the transmitter. Call once per cycle the owner is
// awake; mid-burst calls return immediately.
func (t *TX) Tick() {
	now := t.clk.Cycle() + 1 // the cycle this Eval's edge completes
	if t.frames > 0 {
		if now < t.end {
			return
		}
		t.Sent += uint64(t.frames)
		t.frames = 0
		t.gapEnd = now + uint64(t.Gap)
	}
	if now < t.gapEnd {
		t.restLine()
		if len(t.queue) > 0 {
			t.owner.WakeAt(t.gapEnd) // start the next byte the moment the gap ends
		} else if now < t.gapEnd-1 {
			// Nothing to transmit at the gap's end, but Idle() flips
			// after cycle gapEnd-1 and drain loops poll it between
			// steps: wake the owner there so a warped run observes the
			// flip on exactly the cycle a stepped run does.
			t.owner.WakeAt(t.gapEnd - 1)
		}
		return
	}
	if len(t.queue) == 0 {
		t.restLine()
		return
	}
	n := min(len(t.queue), maxBurst)
	if t.Gap > 0 {
		n = 1
	}
	w := Wave{At: now, Div: uint64(t.div), N: uint8(10 * n)}
	for i, b := range t.queue[:n] {
		// LSB first, framed by start (0) and stop (1).
		w.Bits |= (uint64(b)<<1 | 1<<9) << (10 * i)
	}
	t.queue = t.queue[n:]
	t.frames, t.end = n, now+uint64(10*n*t.div)
	t.line.Set(w)
	t.owner.WakeAt(t.end)
}

// RX deserializes bytes from a line. SetDiv configures the divisor
// (possibly discovered by auto-baud); bytes appear via the Recv hook.
//
// RX is the per-cycle receiver, run lazily. At each tick n the
// per-cycle receiver reads the level the line showed at cycle n-1.
// Idle, it starts a frame on a low level, unless a frame closed at that
// tick. A frame samples at n+div/2+k*div for k = 0..9: the start bit
// (high: a frame error, back to idle), eight data bits, LSB first, and
// the stop bit (high: a byte, low: a frame error). Tick replays it over
// the ticks since the previous Tick from the waves the line showed, and
// arms a WakeAt timer for the owner at the stop-bit sample of the next
// byte the line's wave holds, where Recv must run. The owner watches
// the line, so a new wave wakes it and the wave each Tick reads is
// exact; it need not stay awake for the receiver.
type RX struct {
	line  *Line
	clk   *sim.Clock
	owner sim.Handle // woken where a byte completes
	div   int

	shown Wave    // the line's wave at the previous Tick
	f     rxFrame // the per-cycle receiver, replayed through the previous Tick

	// The byte armed at the previous Tick: the tick it completes in, 0
	// for none, the receiver just after it and the frame errors before
	// it, had the line kept its wave.
	due   uint64
	ahead rxFrame
	errs  uint64

	// Recv is called for every received byte during Tick.
	Recv func(b byte)

	// FrameError counts frame errors, brought up to date at the
	// receiver's next Tick.
	FrameError uint64
}

// NewRX returns a receiver for line at div cycles per bit (0 = not yet
// known; Tick ignores traffic until SetDiv), owned (ticked) by the
// component whose Register returned owner, which must watch line.
func NewRX(line *Line, div int, owner sim.Handle) *RX {
	r := &RX{line: line, clk: line.Clock(), owner: owner, shown: line.Get()}
	r.SetDiv(div)
	return r
}

// SetDiv sets the divisor, typically from auto-baud measurement. The
// receiver starts idle at the coming tick.
func (r *RX) SetDiv(div int) {
	r.div = div
	r.f, r.due = rxFrame{at: r.clk.Cycle() + 1}, 0
}

// Div reports the current divisor (0 when undetected).
func (r *RX) Div() int { return r.div }

// Tick advances the receiver. Call once per cycle the owner is awake.
func (r *RX) Tick() {
	now := r.clk.Cycle() + 1
	// The watch woke the owner for the first tick after a change, so a
	// new wave was on the line from the previous cycle on: the ticks
	// before this one read the wave the previous Tick saw.
	was, w := r.shown, r.line.Get()
	r.shown = w
	if r.div <= 0 {
		return
	}
	if now == r.due && was == w {
		// The armed byte, on the wave it was armed on: the previous
		// Tick's look-ahead has replayed the ticks up to it.
		r.f = r.ahead
		r.FrameError += r.errs
		if r.Recv != nil {
			r.Recv(r.f.data)
		}
	} else {
		r.replay(was, now-1)
		r.replay(w, now)
	}
	// Arm the stop-bit sample of the next byte the wave holds. A frame
	// that starts after the wave's last edge reads one level throughout,
	// so it cannot complete a byte.
	f, errs := r.f, uint64(0)
	r.due = 0
	until := max(now, w.At+uint64(w.N-1)*w.Div) + uint64(10*r.div)
	for ev := f.step(w, r.div, until); ev != rxNone; ev = f.step(w, r.div, until) {
		if ev == rxError {
			errs++
			continue
		}
		r.due, r.ahead, r.errs = f.at-1, f, errs
		r.owner.WakeAt(r.due)
		return
	}
}

// replay advances the receiver through tick until, reading w, and
// counts or delivers what it receives.
func (r *RX) replay(w Wave, until uint64) {
	for ev := r.f.step(w, r.div, until); ev != rxNone; ev = r.f.step(w, r.div, until) {
		if ev == rxError {
			r.FrameError++
		} else if r.Recv != nil {
			r.Recv(r.f.data)
		}
	}
}

// rxFrame is the per-cycle receiver's state between two ticks.
type rxFrame struct {
	busy bool
	k    int    // busy: the next sample: 0 the start bit's, 1-8 the data bits', 9 the stop bit's
	data byte   // the data bits sampled so far
	at   uint64 // busy: the tick of sample k; idle: the first tick that may start a frame
}

// How a step ends.
const (
	rxNone  = iota // the receiver reached its until tick
	rxByte         // a frame closed with a byte
	rxError        // a frame closed with a frame error
)

// step advances the receiver through tick until, reading the levels of
// w, and stops early after the first frame that closes.
func (f *rxFrame) step(w Wave, div int, until uint64) int {
	for {
		if !f.busy {
			c, ok := w.find(f.at-1, false)
			if !ok || c+1 > until {
				f.at = until + 1
				return rxNone
			}
			*f = rxFrame{busy: true, at: c + 1 + uint64(div/2)}
		}
		if f.at > until {
			return rxNone
		}
		high := w.level(f.at - 1)
		if f.k == 0 && high || f.k == 9 {
			f.busy = false
			f.at++ // no frame starts at the tick one closed in
			if f.k == 9 && high {
				return rxByte
			}
			return rxError
		}
		if f.k > 0 && high {
			f.data |= 1 << (f.k - 1)
		}
		f.k++
		f.at += uint64(div)
	}
}
