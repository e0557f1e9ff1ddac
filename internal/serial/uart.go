// Package serial implements the MultiNoC Serial IP core (§2.2) and the
// RS-232 machinery under it: a bit-level UART line model (start bit,
// eight data bits LSB-first, stop bit), auto-baud detection from the
// 0x55 synchronization byte (§4), and the framing that turns host
// command bytes into NoC service packets and back.
//
// The UART models are event-paced: the line only changes at bit edges,
// so between edges a transmitter or receiver has nothing to do. Both
// take the Handle of their owning component at construction, schedule
// their next edge (or mid-bit sample) at an absolute cycle and arm a
// sim.Handle.WakeAt timer for it on the owner — letting the owner
// sleep through the divisor-many dead cycles inside every bit and the
// time-warp kernel skip them outright. An owner that never sleeps and
// ticks them every cycle drives exactly the same state machine and
// produces a bit-identical line waveform.
package serial

import "repro/internal/sim"

// Line is one RS-232 signal (idle high). The paper's tx/rx pair is two
// Lines, one per direction.
type Line = sim.Wire[bool]

// NewLine creates an idle-high line in clk's domain.
func NewLine(clk *sim.Clock) *Line {
	return sim.NewWire(clk, true)
}

// TX serializes bytes onto a line at a fixed divisor (clock cycles per
// bit). The owning component calls Tick once per cycle it is awake and
// Queue to append bytes; Queue is safe during the owner's Eval. Tick
// only acts at bit edges (scheduled at absolute cycles), so the owner
// sleeps between edges and is woken by the WakeAt timer TX arms.
type TX struct {
	line  *Line
	clk   *sim.Clock
	owner sim.Handle // woken at bit edges
	div   int

	queue []byte
	// shift register state: 1 start + 8 data + 1 stop.
	bits   uint16
	bitIdx int
	active bool
	edgeAt uint64 // cycle at which the current bit period ends
	gapEnd uint64 // cycle before which no new byte may start

	// Gap inserts idle cycles after each byte (used by the host to
	// separate the auto-baud byte from the first frame).
	Gap int

	Sent uint64
}

// NewTX returns a transmitter for line at div clock cycles per bit,
// owned (ticked) by the component whose Register returned owner. It
// arms a WakeAt timer for the owner at every scheduled bit edge, so the
// owner may report Idle between edges (see Dormant).
func NewTX(line *Line, div int, owner sim.Handle) *TX {
	return &TX{line: line, clk: line.Clock(), div: div, owner: owner}
}

// Queue appends bytes for transmission.
func (t *TX) Queue(bs ...byte) { t.queue = append(t.queue, bs...) }

// Idle reports whether the transmitter has fully drained: nothing
// queued, no byte in flight and any post-byte gap elapsed.
func (t *TX) Idle() bool {
	return !t.active && len(t.queue) == 0 && t.clk.Cycle()+1 >= t.gapEnd
}

// Dormant reports whether the transmitter needs no Evals until an
// already-armed timer fires (mid-bit, mid-gap) or it is fully idle:
// its owner may sleep whenever it is Dormant.
func (t *TX) Dormant() bool {
	if t.active || t.clk.Cycle()+1 < t.gapEnd {
		return true // edge or gap timer armed
	}
	return len(t.queue) == 0
}

// QueueLen reports how many bytes await transmission.
func (t *TX) QueueLen() int { return len(t.queue) }

// Div reports the configured divisor.
func (t *TX) Div() int { return t.div }

// setLine stages v only on change, so an idle transmitter does not keep
// its line on the kernel's dirty list.
func (t *TX) setLine(v bool) {
	if t.line.Peek() != v {
		t.line.Set(v)
	}
}

// drive stages the level of bit t.bitIdx, extends t.bitIdx through the
// run of equal bits that follows (the line does not move inside a run,
// so the next wake can land directly on the transition — or the frame
// end) and schedules the edge that ends the run.
func (t *TX) drive(now uint64) {
	v := t.bits>>t.bitIdx&1 != 0
	t.setLine(v)
	run := 1
	for t.bitIdx+1 < 10 && (t.bits>>(t.bitIdx+1)&1 != 0) == v {
		t.bitIdx++
		run++
	}
	t.edgeAt = now + uint64(run*t.div)
	t.owner.WakeAt(t.edgeAt)
}

// Tick advances the transmitter. Call once per cycle the owner is
// awake; mid-bit calls return immediately.
func (t *TX) Tick() {
	now := t.clk.Cycle() + 1 // the cycle this Eval's edge completes
	if t.active {
		if now < t.edgeAt {
			return
		}
		t.bitIdx++
		if t.bitIdx < 10 {
			t.drive(now)
			return
		}
		// Stop bit completed.
		t.active = false
		t.Sent++
		t.gapEnd = now + uint64(t.Gap)
	}
	if now < t.gapEnd {
		t.setLine(true)
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
		t.setLine(true)
		return
	}
	b := t.queue[0]
	t.queue = t.queue[1:]
	// LSB first, framed by start (0) and stop (1).
	t.bits = uint16(b)<<1 | 1<<9
	t.bitIdx = 0
	t.active = true
	t.drive(now) // start bit (and the zero bits run-sharing its level)
}

// RX deserializes bytes from a line. SetDiv configures the divisor
// (possibly discovered by auto-baud); bytes appear via the Recv hook.
// Within a frame the receiver samples at absolute mid-bit cycles and
// arms a WakeAt timer for its owner where a sample is due.
type RX struct {
	line  *Line
	clk   *sim.Clock
	owner sim.Handle // woken at mid-bit samples
	div   int

	state    int // 0 idle, 1 receiving
	bitIdx   int
	cur      uint16
	sampleAt uint64 // cycle of the next mid-bit sample
	lastBit  bool   // line level observed by the previous Tick

	// Recv is called for every received byte during Tick.
	Recv func(b byte)

	Received   uint64
	FrameError uint64
}

// NewRX returns a receiver for line at div cycles per bit (0 = not yet
// known; Tick ignores traffic until SetDiv), owned (ticked) by the
// component whose Register returned owner, which may sleep between bit
// samples.
func NewRX(line *Line, div int, owner sim.Handle) *RX {
	return &RX{line: line, clk: line.Clock(), div: div, owner: owner}
}

// SetDiv sets the divisor, typically from auto-baud measurement.
func (r *RX) SetDiv(div int) { r.div = div }

// Idle reports that the receiver is between frames with the line at
// rest (idle high): Tick would be a no-op. The owning component may
// sleep in this state if it watches the line for the next start bit.
func (r *RX) Idle() bool { return r.state == 0 && r.line.Get() }

// Dormant reports whether the receiver needs no Evals until the line
// changes (watched by the owner) or the armed sample timer fires. A
// receiver with no divisor ignores the line entirely and is always
// dormant.
func (r *RX) Dormant() bool {
	if r.div <= 0 {
		return true
	}
	if r.state == 0 {
		return r.line.Get()
	}
	return true // sample timer armed
}

// Div reports the current divisor (0 when undetected).
func (r *RX) Div() int { return r.div }

// sample consumes one mid-bit sample with the given line level,
// advancing the frame state exactly as a per-cycle receiver would at
// that sample's cycle.
func (r *RX) sample(bit bool) {
	switch {
	case r.bitIdx == -1:
		if bit { // start bit vanished: glitch
			r.state = 0
			r.FrameError++
			return
		}
		r.bitIdx = 0
	case r.bitIdx < 8:
		if bit {
			r.cur |= 1 << r.bitIdx
		}
		r.bitIdx++
	default: // stop bit
		if bit {
			r.Received++
			if r.Recv != nil {
				r.Recv(byte(r.cur))
			}
		} else {
			r.FrameError++
		}
		r.state = 0
		return
	}
	r.sampleAt += uint64(r.div)
}

// Tick advances the receiver. Call once per cycle the owner is awake.
// The line can only move while its driver is awake to stage the change,
// and every change reaches the owner (it watches the line, or ticks
// every cycle), so the level across the cycles since the previous Tick
// is exactly the level that Tick observed: all mid-bit samples that
// fell due in between are reconstructed from it, and the only timer a
// frame needs is its stop-bit sample.
func (r *RX) Tick() {
	if r.div <= 0 {
		return
	}
	now := r.clk.Cycle() + 1
	bit := r.line.Get()
	closedOnTime := false
	for r.state == 1 && r.sampleAt <= now {
		onTime := r.sampleAt == now
		if onTime {
			r.sample(bit) // a sample on this cycle sees the new level
		} else {
			r.sample(r.lastBit)
		}
		if r.state == 0 {
			closedOnTime = onTime
		}
	}
	if r.state == 0 && !bit { // start bit edge
		if closedOnTime {
			// The previous frame closed on a sample of this very cycle.
			// The per-cycle reference, already dispatched into its
			// receiving state, only sees this edge on the next cycle —
			// wake the owner there so a receiver whose owner sleeps
			// detects the start bit on exactly the same cycle.
			r.owner.WakeAt(now + 1)
		} else {
			// Either plain idle-line detection, or the edge that ended
			// a deferred catch-up: the reference closed the frame
			// cycles ago and would detect this very edge now.
			r.state = 1
			r.bitIdx = -1 // -1 = verifying start bit
			r.cur = 0
			r.sampleAt = now + uint64(r.div/2) // sample mid-bit
			// One timer per frame: the stop-bit sample, where the byte
			// completes even if the line never moves again.
			r.owner.WakeAt(r.sampleAt + uint64(9*r.div))
		}
	}
	r.lastBit = bit
}
