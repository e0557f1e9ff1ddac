package serial

import (
	"repro/internal/noc"
	"repro/internal/sim"
)

// auto-baud states.
const (
	abWait = iota // line idle, waiting for the sync byte's start bit
	abMeasure
	abSettle
	abDone
)

// IP is the Serial IP core (§2.2): it assembles NoC packets from host
// command bytes arriving on rxd and disassembles NoC packets into frame
// bytes on txd. Before anything else it measures the host baud rate
// from the 0x55 synchronization byte (§4).
//
// Auto-baud is edge-stamped rather than cycle-counted: the watched rxd
// line wakes the IP for each new wave, and a WakeAt timer the cycle
// after each edge inside it, so the low span of the sync byte's start
// bit is measured as the difference of two cycle stamps and the settle
// window as an absolute deadline (armed as a WakeAt timer) — letting the
// IP sleep through the constant spans in between, which the time-warp
// kernel then skips outright.
type IP struct {
	ep   *noc.Endpoint
	clk  *sim.Clock
	self sim.Handle
	utx  *TX
	urx  *RX

	parser      downParser
	abState     int
	abDiv       int
	abLowStart  uint64 // cycle of the first low Eval of the measured start bit
	abHighStart uint64 // cycle of the first counted high Eval of the settle run

	// Stats.
	FramesToNoC  uint64
	FramesToHost uint64
	EncodeErrors uint64
	PacketErrors uint64
}

// NewIP creates the Serial IP on the router at addr. rxd carries data
// from the host (the system's "tx" pin in Figure 1), txd to the host.
// The IP registers itself with the network's clock, which the host and
// its UART lines share.
func NewIP(net *noc.Network, addr noc.Addr, rxd, txd *Line) (*IP, error) {
	ep, err := net.NewEndpoint(addr)
	if err != nil {
		return nil, err
	}
	ip := &IP{
		ep:      ep,
		clk:     net.Clock(),
		abState: abWait,
	}
	ip.self = ip.clk.Register(ip)
	ip.utx = NewTX(txd, 0, ip.self)
	ip.urx = NewRX(rxd, 0, ip.self)
	ip.urx.Recv = ip.feed
	ep.SetOwner(ip.self)
	// A burst on the host line must wake the IP out of idle sleep, both
	// for auto-baud edge measurement and for frame reception.
	sim.Watch(rxd, ip.self, 0)
	return ip, nil
}

// Baud reports the detected divisor (0 before synchronization).
func (ip *IP) Baud() int { return ip.abDiv }

// Synchronized reports whether auto-baud has completed.
func (ip *IP) Synchronized() bool { return ip.abState == abDone }

// Addr returns the IP's mesh address.
func (ip *IP) Addr() noc.Addr { return ip.ep.Addr() }

// feed handles one received host byte.
func (ip *IP) feed(b byte) {
	m, tgt, ok := ip.parser.Feed(b)
	if !ok {
		return
	}
	ip.FramesToNoC++
	// Oversized writes are split into multiple service packets so the
	// 8-bit size flit can express them.
	if m.Svc == noc.SvcWriteMem && len(m.Words) > noc.MaxServiceWords {
		for _, span := range noc.SplitWords(m.Addr, m.Words) {
			sub := &noc.Message{Svc: noc.SvcWriteMem, Addr: span.Addr, Words: span.Words}
			if _, err := ip.ep.SendMessage(tgt, sub); err != nil {
				ip.EncodeErrors++
			}
		}
		return
	}
	if m.Svc == noc.SvcReadMem && m.Count > noc.MaxServiceWords {
		addr, left := m.Addr, m.Count
		for left > 0 {
			n := left
			if n > noc.MaxServiceWords {
				n = noc.MaxServiceWords
			}
			sub := &noc.Message{Svc: noc.SvcReadMem, Addr: addr, Count: n}
			if _, err := ip.ep.SendMessage(tgt, sub); err != nil {
				ip.EncodeErrors++
			}
			addr += uint16(n)
			left -= n
		}
		return
	}
	if _, err := ip.ep.SendMessage(tgt, m); err != nil {
		ip.EncodeErrors++
	}
}

// Eval implements sim.Component.
func (ip *IP) Eval() {
	ip.tickAutobaud()
	ip.urx.Tick()
	// NoC -> host direction.
	for {
		m, ok, err := ip.ep.RecvMessage()
		if !ok {
			break
		}
		if err != nil {
			ip.PacketErrors++
			continue
		}
		bs, err := EncodeUp(m)
		if err != nil {
			ip.EncodeErrors++
			continue
		}
		ip.FramesToHost++
		ip.utx.Queue(bs...)
	}
	ip.utx.Tick()
}

func (ip *IP) tickAutobaud() {
	if ip.abState == abDone {
		return
	}
	now := ip.clk.Cycle() + 1
	w := ip.urx.line.Get()
	high := w.level(now - 1)
	switch ip.abState {
	case abWait:
		if !high {
			ip.abState = abMeasure
			ip.abLowStart = now
		}
	case abMeasure:
		if !high {
			break // constant span; the rising edge's timer wakes us
		}
		// The 0x55 sync byte's start bit is exactly one bit period: the
		// low span we just measured is the divisor.
		ip.abDiv = int(now - ip.abLowStart)
		ip.abState = abSettle
		// The transition Eval itself is not counted towards the settle
		// window (matching the per-cycle reference); the run starts on
		// the next Eval.
		ip.abHighStart = now + 1
		ip.armSettle()
	case abSettle:
		// Wait for the rest of the sync byte to pass: three bit periods
		// of continuous idle-high only occur after the stop bit.
		switch {
		case !high:
			ip.abHighStart = 0
		case ip.abHighStart == 0:
			ip.abHighStart = now
			ip.armSettle()
		case now >= ip.abHighStart+uint64(3*ip.abDiv)-1:
			ip.urx.SetDiv(ip.abDiv)
			ip.utx.div = ip.abDiv
			ip.abState = abDone
			return
		}
	}
	// The watch wakes the IP for a new wave only: wake it the cycle
	// after each edge inside the wave too, where a line that changed
	// level on its own would have woken it.
	if e, ok := w.find(now, !high); ok {
		ip.self.WakeAt(e + 1)
	}
}

// armSettle wakes the IP at the cycle the current high run completes
// the settle window (stale timers from interrupted runs fire as
// harmless no-op Evals).
func (ip *IP) armSettle() {
	ip.self.WakeAt(ip.abHighStart + uint64(3*ip.abDiv) - 1)
}

// Commit implements sim.Component.
func (ip *IP) Commit() {}

// Idle implements sim.Idler. The Serial IP sleeps whenever its
// transmitter is dormant (fully at rest, or paced by an armed burst or
// gap timer) and no NoC packet awaits disassembly; its receiver never
// keeps it awake. Neither does auto-baud: the measured and settled spans
// are constant line levels, so every event that advances the state
// machine is a new wave on the watched host line, an edge inside it
// (armed as a timer) or the armed settle deadline. Wake sources: the
// watched host line, UART and auto-baud WakeAt timers, and the endpoint
// owner hook (NoC packets).
func (ip *IP) Idle() bool {
	return ip.utx.Dormant() && ip.ep.Pending() == 0
}
