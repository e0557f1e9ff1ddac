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
	Tx   sim.Wire[bool]
	Data sim.Wire[Flit]
	Ack  sim.Wire[bool]
}

// init readies an idle link in place on clk: links live in the
// network's slab, not in one allocation each.
func (l *Link) init(clk *sim.Clock) {
	l.Tx.Init(clk, false)
	l.Data.Init(clk, Flit{})
	l.Ack.Init(clk, false)
}

// sender drives the upstream side of a Link. It is embedded in router
// output ports and endpoints, whose Eval runs one cycle of the
// handshake as begin, then offer or drop:
//
//	accepted, free := s.begin()
//	if accepted { /* stage the pop of the presented flit */ }
//	if free { /* offer the next flit, or drop tx */ }
//
// It keeps no state but its link. A free owner always offers or drops,
// so the sender is busy, with a flit presented and waiting for its ack,
// exactly while its latched tx is high, and changes tx only in the
// cycle it sees an ack or while tx is low. A reading router learns of
// that change from its change mask after the edge: the latch marks the
// input's port, and the router's Idle reads tx again through Get. The
// sender's ack is one of a router's wake sources, and its change marks
// the output's bit, numPorts above the inputs': a router reads a busy
// sender's link (its presenting mask, kept where it calls offer and
// drop) only when the ack changes. A header waiting for the router's
// control is no wake source, because the control's scan starts on the
// edge.
type sender struct {
	link *Link
}

// begin starts the cycle. accepted reports that the presented flit's
// ack is seen, in the Eval of the cycle it is observed, so the owner
// stages the pop and any bookkeeping. free reports that the sender may
// present a flit this cycle: at once after an accept, preserving the
// 2-cycle cadence.
func (s *sender) begin() (accepted, free bool) {
	if !s.link.Tx.Get() {
		return false, true
	}
	accepted = s.link.Ack.Get()
	return accepted, accepted
}

// offer presents f on the link. Only a free sender may offer. Like
// drop, it raises tx only on the transition: mid-packet tx is already
// high, and re-staging it would put the link back on the kernel's
// dirty-wire list for a latch that changes nothing.
func (s *sender) offer(f Flit) {
	s.link.Data.Set(f)
	if !s.link.Tx.Peek() {
		s.link.Tx.Set(true)
	}
}

// drop deasserts tx when a free sender has nothing to present.
// Deassert only on the transition; re-staging an already-low tx every
// cycle would keep the idle link on the kernel's dirty-wire list for
// nothing.
func (s *sender) drop() {
	if s.link.Tx.Peek() {
		s.link.Tx.Set(false)
	}
}

// receiver drives the downstream side of a Link. It keeps no state but
// its link: its latched ack is high exactly on the cycle after it
// accepted, while the data on the link is stale. A router keeps that
// as its acking mask, so it visits an input whose tx and ack are low
// only when the edge marks a tx change. The receiver Sets ack only in
// its owner's Eval: the sending router's Commit reads a connected
// output's ack through Peek for its Idle answer. Its tx is the other
// link wake source of a router.
type receiver struct {
	link *Link
}

// eval runs the receiver handshake for one cycle: with tx high, no ack
// outstanding and space in the owner's buffer, it accepts the flit on
// the link and raises ack for one cycle. It returns the accepted flit,
// which the owner stages.
func (r *receiver) eval(space bool) (f Flit, accepted bool) {
	ack := r.link.Ack.Get()
	accepted = r.link.Tx.Get() && !ack && space
	if accepted != ack {
		r.link.Ack.Set(accepted)
	}
	if accepted {
		f = r.link.Data.Get()
	}
	return f, accepted
}
