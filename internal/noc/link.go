package noc

import "repro/internal/sim"

// Link models one unidirectional physical channel between neighbouring
// routers (or between a router's Local port and its IP core): the
// tx/data_out and ack signals of §2.1. Both routers of a neighbour pair
// hold two Links, one per direction, giving the six-signal interface the
// paper lists (tx, data_out, ack_tx, rx, data_in, ack_rx).
//
// The handshake condensed onto these registered wires costs exactly two
// clock cycles per flit in steady state, which is the figure the paper's
// latency formula and the 1 Gbit/s peak-throughput claim are built on:
//
//	cycle k:   sender drives tx=1 with a new flit
//	cycle k+1: receiver sees it, accepts, raises ack for one cycle
//	cycle k+2: sender sees ack, presents the next flit
type Link struct {
	Tx   *sim.Wire[bool]
	Data *sim.Wire[Flit]
	Ack  *sim.Wire[bool]
}

// NewLink creates an idle link in clk's domain.
func NewLink(clk *sim.Clock, name string) *Link {
	return &Link{
		Tx:   sim.NewWire(clk, name+".tx", false),
		Data: sim.NewWire(clk, name+".data", Flit{}),
		Ack:  sim.NewWire(clk, name+".ack", false),
	}
}

// NewCrossLink creates a link crossing a clock-domain boundary: the
// sender lives in src's domain, the receiver in dst's. Each side gets
// its own view of the link holding local wires for the signals it
// drives (tx/data on the send side, ack on the receive side) and
// mirror wires for the signals driven from the other domain. The
// mirrors carry exactly the one-cycle registration an intra-domain
// wire has, so the 2-cycle flit handshake — and therefore every
// latency and throughput figure — is bit-identical to an ordinary
// link; the boundary costs lookahead, not cycles.
func NewCrossLink(src, dst *sim.Clock, name string) (send, recv *Link) {
	tx := sim.NewWire(src, name+".tx", false)
	data := sim.NewWire(src, name+".data", Flit{})
	ack := sim.NewWire(dst, name+".ack", false)
	send = &Link{Tx: tx, Data: data, Ack: sim.MirrorWire(ack, src)}
	recv = &Link{Tx: sim.MirrorWire(tx, dst), Data: sim.MirrorWire(data, dst), Ack: ack}
	return send, recv
}

// sender drives the upstream side of a Link. It is embedded in router
// output ports and endpoints; its owner supplies the flit source.
type sender struct {
	link *Link
	busy bool // flit presented, waiting for ack

	nBusy bool
}

// eval runs the sender handshake for one cycle.
//
// hasNext/peek expose the owner's flit queue; accepted is called exactly
// once per flit, in the Eval phase of the cycle in which the downstream
// ack is observed, so the owner can stage the corresponding pop and any
// bookkeeping. After a flit is accepted the sender immediately presents
// the following one when available, preserving the 2-cycle cadence.
func (s *sender) eval(hasNext func() bool, peek func() Flit, accepted func()) {
	s.nBusy = s.busy
	if s.busy && s.link.Ack.Get() {
		accepted()
		s.nBusy = false
	}
	if !s.nBusy {
		if hasNext() {
			s.link.Data.Set(peek())
			s.link.Tx.Set(true)
			s.nBusy = true
		} else if s.link.Tx.Peek() {
			// Deassert only on the transition; re-staging an already-low
			// tx every cycle would keep the idle link on the kernel's
			// dirty-wire list for nothing.
			s.link.Tx.Set(false)
		}
	}
}

func (s *sender) commit() { s.busy = s.nBusy }

// receiver drives the downstream side of a Link. Its owner supplies the
// space check and consumes accepted flits.
type receiver struct {
	link    *Link
	ackHigh bool // we accepted last cycle; data on the wire is stale

	nAckHigh bool
}

// eval runs the receiver handshake for one cycle. If a flit is accepted
// this cycle, take is called with it (the owner stages the push).
func (r *receiver) eval(hasSpace func() bool, take func(Flit)) {
	accept := r.link.Tx.Get() && !r.ackHigh && hasSpace()
	if accept {
		take(r.link.Data.Get())
	}
	if accept != r.link.Ack.Peek() {
		r.link.Ack.Set(accept)
	}
	r.nAckHigh = accept
}

func (r *receiver) commit() { r.ackHigh = r.nAckHigh }
