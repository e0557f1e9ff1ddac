package noc

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Endpoint is the Local-port adapter through which an IP core exchanges
// packets with the NoC. It owns the injection queue (flattening packets
// into flits and driving the handshake towards the router) and packet
// reassembly on the receive side.
//
// Send and Recv are safe to call from the owning IP core's Eval phase:
// sends are staged and become visible to the endpoint on the next cycle;
// Recv pops packets that completed on earlier cycles. One endpoint must
// have exactly one owning component.
type Endpoint struct {
	net   *Network
	addr  Addr
	clk   *sim.Clock // the network's clock, shared with the owner
	self  sim.Handle // pre-resolved wake token, set at registration
	snd   sender
	rcv   receiver
	owner sim.Component // woken when a packet completes; may be nil

	txq    []txFlit // committed outgoing flit stream
	stSend []txFlit // staged by Send, moved to txq at Commit
	stFwd  []txFlit // staged by path-multicast forwarding (see Commit)
	popped int      // flits of txq accepted this Eval (0 or 1)

	rxPhase     int
	rxRemaining int
	rxPayload   []uint16
	rxMeta      *PacketMeta
	rxDone      []Packet // completed packets awaiting Recv
	stRxDone    []Packet // staged completions

	sent     uint64
	received uint64
}

type txFlit struct {
	f      Flit
	header bool
	tail   bool
}

// Addr reports the mesh address of the router this endpoint hangs off.
func (e *Endpoint) Addr() Addr { return e.addr }

// SetOwner names the component that consumes this endpoint's received
// packets. The owner is woken whenever a packet completes reassembly,
// which lets it implement sim.Idler and sleep between packets.
func (e *Endpoint) SetOwner(c sim.Component) { e.owner = c }

// Send stages a packet for injection. The destination must be a router
// of the mesh and the payload length must not exceed MaxPayload for the
// network's flit width.
func (e *Endpoint) Send(dst Addr, payload []uint16) (*PacketMeta, error) {
	if err := e.checkSend(dst, payload); err != nil {
		return nil, err
	}
	meta := e.net.allocMeta(e, dst, len(payload))
	e.stagePacket(meta, dst, payload, false)
	return meta, nil
}

// checkSend validates one destination/payload pair against the mesh.
func (e *Endpoint) checkSend(dst Addr, payload []uint16) error {
	if dst.X < 0 || dst.X >= e.net.cfg.Width || dst.Y < 0 || dst.Y >= e.net.cfg.Height {
		return fmt.Errorf("noc: destination %s outside the %dx%d mesh",
			dst, e.net.cfg.Width, e.net.cfg.Height)
	}
	if len(payload) > MaxPayload(e.net.cfg.FlitBits) {
		return fmt.Errorf("noc: payload of %d flits exceeds max %d",
			len(payload), MaxPayload(e.net.cfg.FlitBits))
	}
	return nil
}

// stagePacket appends an already-validated packet's wire-format flits
// (header, size, payload) to the staged injection queue. It is the
// shared tail of Send, SendMulti and the path-multicast forwarding done
// in complete. Forwarded legs (forward=true) are staged in a separate
// buffer that Commit merges ahead of same-cycle Sends: the two stagers
// run in different components' Eval phases, so without a fixed merge
// order the txq order would depend on the kernel's evaluation order.
func (e *Endpoint) stagePacket(meta *PacketMeta, dst Addr, payload []uint16, forward bool) {
	q := &e.stSend
	if forward {
		q = &e.stFwd
	}
	mask := flitMask(e.net.cfg.FlitBits)
	id := PacketID(meta.ID)
	*q = append(*q,
		txFlit{f: Flit{Data: dst.Encode() & mask, Pkt: id}, header: true},
		txFlit{f: Flit{Data: uint16(len(payload)) & mask, Pkt: id}, tail: len(payload) == 0})
	for i, v := range payload {
		*q = append(*q, txFlit{f: Flit{Data: v & mask, Pkt: id}, tail: i == len(payload)-1})
	}
	// A sleeping endpoint must join the current edge so the staged
	// flits commit to the injection queue this cycle, exactly as they
	// would under dense evaluation.
	e.self.Wake()
}

// SendMulti stages one payload for delivery to a set of destinations,
// as a multicast group (see MulticastMeta for the two delivery modes).
// Destinations must be distinct routers of the mesh; a destination with
// no endpoint attached cannot absorb a copy and is counted as dropped
// rather than wedging the worm. The group's visit order is the
// canonical column-snake path over the destination set, independent of
// the order dsts was passed in.
func (e *Endpoint) SendMulti(dsts []Addr, payload []uint16) (*MulticastMeta, error) {
	if len(dsts) == 0 {
		return nil, fmt.Errorf("noc: empty multicast destination set")
	}
	seen := make(map[Addr]bool, len(dsts))
	for _, d := range dsts {
		if err := e.checkSend(d, payload); err != nil {
			return nil, err
		}
		if seen[d] {
			return nil, fmt.Errorf("noc: duplicate multicast destination %s", d)
		}
		seen[d] = true
	}
	g := &MulticastMeta{
		Src:          e.addr,
		CreatedCycle: e.clk.Cycle(),
		Path:         e.net.pathMcast,
	}
	for _, d := range MulticastPath(dsts) {
		if e.net.endpoints[d] == nil {
			g.Dropped++
			continue
		}
		g.Dsts = append(g.Dsts, d)
	}
	prev := e.addr
	for i, d := range g.Dsts {
		m := e.net.allocMeta(e, d, len(payload))
		m.MC, m.MCIndex = g, i
		if g.Path {
			m.Hops = HopCount(prev, d)
			prev = d
		}
		g.Legs = append(g.Legs, m)
	}
	if len(g.Legs) > 0 {
		g.ID = g.Legs[0].ID
	}
	e.net.mcast.Groups++
	e.net.mcast.Dropped += uint64(g.Dropped)
	if g.Path {
		if len(g.Legs) > 0 {
			e.stagePacket(g.Legs[0], g.Dsts[0], payload, false)
		}
	} else {
		for i := range g.Legs {
			e.stagePacket(g.Legs[i], g.Dsts[i], payload, false)
		}
	}
	return g, nil
}

// MulticastPath orders a destination set into the canonical visit path
// of path-based multicast: a column-snake — columns west to east, rows
// climbing on even columns and descending on odd ones — so consecutive
// stops stay close on the mesh and the order is a deterministic
// function of the set alone. The input slice is not modified.
func MulticastPath(dsts []Addr) []Addr {
	path := make([]Addr, len(dsts))
	copy(path, dsts)
	sort.Slice(path, func(i, j int) bool {
		a, b := path[i], path[j]
		if a.X != b.X {
			return a.X < b.X
		}
		if a.X%2 == 0 {
			return a.Y < b.Y
		}
		return a.Y > b.Y
	})
	return path
}

// Clock returns the clock the endpoint is registered on: the
// network's, which its owning IP core shares.
func (e *Endpoint) Clock() *sim.Clock { return e.clk }

// Recv pops the oldest fully received packet, reporting false when none
// is pending.
func (e *Endpoint) Recv() (Packet, bool) {
	if len(e.rxDone) == 0 {
		return Packet{}, false
	}
	p := e.rxDone[0]
	e.rxDone = e.rxDone[1:]
	return p, true
}

// Pending reports how many received packets await Recv.
func (e *Endpoint) Pending() int { return len(e.rxDone) }

// QueuedFlits reports how many flits sit in the committed injection
// queue (backpressure signal for traffic generators).
func (e *Endpoint) QueuedFlits() int { return len(e.txq) }

// Sent and Received report completed packet counts.
func (e *Endpoint) Sent() uint64     { return e.sent }
func (e *Endpoint) Received() uint64 { return e.received }

// Name implements sim.Component.
func (e *Endpoint) Name() string { return fmt.Sprintf("endpoint%s", e.addr) }

// Eval implements sim.Component.
func (e *Endpoint) Eval() {
	accepted, free := e.snd.begin()
	if accepted {
		tf := e.txq[0]
		if tf.header {
			if m := e.net.Meta(tf.f.Pkt); m != nil {
				m.InjectCycle = e.clk.Cycle()
			}
		}
		if tf.tail {
			e.sent++
		}
		e.popped = 1
	}
	if free {
		if len(e.txq) > e.popped {
			e.snd.offer(e.txq[e.popped].f)
		} else {
			e.snd.drop()
		}
	}
	// Endpoints sink at link rate.
	if f, ok := e.rcv.eval(true); ok {
		e.assemble(f)
	}
}

func (e *Endpoint) assemble(fl Flit) {
	switch e.rxPhase {
	case phaseHeader:
		e.rxMeta = e.net.Meta(fl.Pkt)
		e.rxPayload = e.rxPayload[:0]
		e.rxPhase = phaseSize
	case phaseSize:
		e.rxRemaining = int(fl.Data)
		e.rxPhase = phasePayload
		if e.rxRemaining == 0 {
			e.complete()
		}
	case phasePayload:
		e.rxPayload = append(e.rxPayload, fl.Data)
		e.rxRemaining--
		if e.rxRemaining == 0 {
			e.complete()
		}
	}
}

func (e *Endpoint) complete() {
	payload := make([]uint16, len(e.rxPayload))
	copy(payload, e.rxPayload)
	var src Addr
	if m := e.rxMeta; m != nil {
		src = m.Src
		e.net.packetDelivered(e, m)
		if g := m.MC; g != nil && g.Path && m.MCIndex+1 < len(g.Dsts) {
			// Path-based multicast: this endpoint was an intermediate
			// stop. Absorb the copy (staged below like any delivery) and
			// re-inject the payload towards the next destination on the
			// path, under the next leg's pre-allocated metadata.
			next := m.MCIndex + 1
			e.stagePacket(g.Legs[next], g.Dsts[next], payload, true)
		}
	}
	e.stRxDone = append(e.stRxDone, Packet{Src: src, Dst: e.addr, Payload: payload, Meta: e.rxMeta})
	e.rxPhase = phaseHeader
	e.received++
	e.clk.Wake(e.owner)
}

// Idle implements sim.Idler: it reports whether the next Eval would
// stage nothing. An endpoint may sleep mid-reassembly and with flits
// queued behind a presented one, provided that no Send is staged, the
// link from its router has tx low and no ack outstanding, and its
// sender waits for an ack or has nothing to present and tx low. It is
// woken by Send (staged work), by a tx change on the link from its
// router or by an ack change on the link to it (both watched in
// NewEndpoint).
func (e *Endpoint) Idle() bool {
	if len(e.stSend) != 0 || len(e.stFwd) != 0 || e.rcv.ackHigh || e.rcv.link.Tx.Get() {
		return false
	}
	l := e.snd.link
	return !l.Ack.Get() && (e.snd.busy || len(e.txq) == 0 && !l.Tx.Get())
}

// Commit implements sim.Component.
func (e *Endpoint) Commit() {
	e.snd.commit()
	e.rcv.commit()
	if e.popped > 0 {
		e.txq = e.txq[e.popped:]
		e.popped = 0
	}
	// Forwarded multicast legs enqueue ahead of same-cycle Sends: a
	// fixed merge order, so the txq is independent of the order the
	// kernel evaluated the endpoint and its owner this cycle.
	if len(e.stFwd) > 0 {
		e.txq = append(e.txq, e.stFwd...)
		e.stFwd = e.stFwd[:0]
	}
	if len(e.stSend) > 0 {
		e.txq = append(e.txq, e.stSend...)
		e.stSend = e.stSend[:0]
	}
	if len(e.stRxDone) > 0 {
		e.rxDone = append(e.rxDone, e.stRxDone...)
		e.stRxDone = e.stRxDone[:0]
	}
}
