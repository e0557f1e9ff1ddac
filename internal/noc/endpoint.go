package noc

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Endpoint is the Local-port adapter through which an IP core exchanges
// packets with the NoC. It owns the injection queue, a queue of whole
// packets that it serialises into header, size and payload flits one
// at a time as the link takes them, as a Hermes local port does
// (§2.1), and packet reassembly on the receive side. Payloads sit in
// per-endpoint word rings in both directions, so once the rings have
// grown to the endpoint's backlog, sending and receiving allocate
// nothing.
//
// Send and Recv are safe to call from the owning IP core's Eval phase.
// A Send joins the injection queue at once but commits on the clock
// edge, so the link sees its first flit on the next cycle whether the
// owner evaluates before or after the endpoint; Recv pops packets that
// completed on earlier cycles. One endpoint must have exactly one
// owning component.
type Endpoint struct {
	net   *Network
	addr  Addr
	clk   *sim.Clock // the network's clock, shared with the owner
	self  sim.Handle // wakes this endpoint
	snd   sender
	rcv   receiver
	owner sim.Handle // wakes the owning IP when a packet completes; may be zero

	// The injection queue: packets oldest first, in the order Send,
	// SendMulti and path-multicast forwarding pushed them, with their
	// payloads in sendWords; a flit is built only when the sender
	// presents it. txHead counts the flits of the oldest packet that
	// the router has accepted, txFlits the committed flits it has not.
	// staged counts the flits pushed since the last edge, which join
	// txFlits at Commit, so Eval presents only committed flits.
	txq       queue[txPacket]
	txHead    int
	txFlits   int
	staged    int
	sendWords wordRing
	popped    int // flits of txq accepted this Eval (0 or 1)

	// Reassembly writes the arriving payload into rxSpan, a span of
	// rxWords at rxPos. Completed packets queue in rxq, whose first
	// rxReady entries have committed and await Recv. rxLent ends the
	// span of the packet Recv returned last; the next Recv frees it.
	rxPhase     int
	rxRemaining int
	rxMeta      *PacketMeta
	rxPos       int
	rxSpan      []uint16
	rxWords     wordRing
	rxq         queue[rxPacket]
	rxReady     int
	rxLent      int

	sent     uint64
	received uint64
}

// txPacket is one packet of the injection queue: the data of its
// header and size flits and the position of its payload in sendWords.
type txPacket struct {
	id     PacketID
	pos    int
	header uint16 // the encoded destination
	size   uint16 // the payload length
}

// rxPacket is a reassembled packet awaiting Recv: n payload words at
// position pos of rxWords.
type rxPacket struct {
	meta   *PacketMeta
	pos, n int
}

// Addr reports the mesh address of the router this endpoint hangs off.
func (e *Endpoint) Addr() Addr { return e.addr }

// SetOwner names, by the Handle its Register returned, the component
// that consumes this endpoint's received packets. The owner is woken
// whenever a packet completes reassembly, which lets it implement
// sim.Idler and sleep between packets.
func (e *Endpoint) SetOwner(h sim.Handle) { e.owner = h }

// Send stages a packet for injection. The destination must be a router
// of the mesh and the payload length must not exceed MaxPayload for the
// network's flit width.
func (e *Endpoint) Send(dst Addr, payload []uint16) (*PacketMeta, error) {
	if err := e.checkSend(dst, payload); err != nil {
		return nil, err
	}
	meta := e.net.allocMeta(e, dst, len(payload))
	e.stagePacket(meta, dst, payload)
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

// stagePacket pushes an already-validated packet onto the injection
// queue, copying its payload into sendWords, and counts its flits as
// staged until Commit. It is the shared tail of Send, SendMulti and
// the path-multicast forwarding done in complete. The queue takes
// packets in the order their stagers evaluate, which every kernel
// keeps to registration order, so it is the same under every kernel.
func (e *Endpoint) stagePacket(meta *PacketMeta, dst Addr, payload []uint16) {
	mask := flitMask(e.net.cfg.FlitBits)
	pos, span := e.sendWords.put(len(payload))
	for i, v := range payload {
		span[i] = v & mask
	}
	p := txPacket{
		id:     PacketID(meta.ID),
		pos:    pos,
		header: dst.Encode() & mask,
		size:   uint16(len(payload)) & mask,
	}
	e.txq.push(p)
	e.staged += int(p.size) + 2
	// A sleeping endpoint must join the current edge so the staged
	// flits commit this cycle, exactly as they would under dense
	// evaluation.
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
		if e.net.Endpoint(d) == nil {
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
			e.stagePacket(g.Legs[0], g.Dsts[0], payload)
		}
	} else {
		for i := range g.Legs {
			e.stagePacket(g.Legs[i], g.Dsts[i], payload)
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

// Recv pops the oldest fully received packet, reporting false when none
// is pending. The payload is the endpoint's reassembly storage, not a
// copy: it stays valid until the next Recv on this endpoint, so a
// caller that keeps it longer copies it.
func (e *Endpoint) Recv() (Packet, bool) {
	if e.rxReady == 0 {
		return Packet{}, false
	}
	return e.pop(), true
}

// pop takes the oldest committed packet off the receive queue and frees
// the one Recv returned before it.
func (e *Endpoint) pop() Packet {
	r := *e.rxq.at(0)
	e.rxq.pop()
	e.rxReady--
	e.rxWords.release(e.rxLent)
	e.rxLent = r.pos + r.n
	p := Packet{Dst: e.addr, Payload: e.rxWords.span(r.pos, r.n), Meta: r.meta}
	if r.meta != nil {
		p.Src = r.meta.Src
	}
	return p
}

// Pending reports how many received packets await Recv.
func (e *Endpoint) Pending() int { return e.rxReady }

// QueuedFlits reports how many flits of the committed injection queue
// the router has not yet accepted (backpressure signal for traffic
// generators).
func (e *Endpoint) QueuedFlits() int { return e.txFlits }

// Sent and Received report completed packet counts.
func (e *Endpoint) Sent() uint64     { return e.sent }
func (e *Endpoint) Received() uint64 { return e.received }

// Eval implements sim.Component.
func (e *Endpoint) Eval() {
	accepted, free := e.snd.begin()
	if accepted {
		e.popped = 1
	}
	if free {
		if e.txFlits > e.popped {
			e.snd.offer(e.txFlit(e.txHead + e.popped))
		} else {
			e.snd.drop()
		}
	}
	// Endpoints sink at link rate.
	if f, ok := e.rcv.eval(true); ok {
		e.assemble(f)
	}
}

// txFlit builds flit i of the injection queue, counting from the first
// flit of its oldest packet: header, size, then payload. i runs at most
// one flit past that packet, to the next packet's header.
func (e *Endpoint) txFlit(i int) Flit {
	p := e.txq.at(0)
	if last := int(p.size) + 1; i > last {
		p, i = e.txq.at(1), 0
	}
	d := p.header
	switch {
	case i == 1:
		d = p.size
	case i > 1:
		d = e.sendWords.at(p.pos + i - 2)
	}
	return Flit{Data: d, Pkt: p.id}
}

func (e *Endpoint) assemble(fl Flit) {
	switch e.rxPhase {
	case phaseHeader:
		e.rxMeta = e.net.Meta(fl.Pkt)
		e.rxPhase = phaseSize
	case phaseSize:
		e.rxRemaining = int(fl.Data)
		e.rxPos, e.rxSpan = e.rxWords.put(e.rxRemaining)
		e.rxPhase = phasePayload
		if e.rxRemaining == 0 {
			e.complete()
		}
	case phasePayload:
		e.rxSpan[len(e.rxSpan)-e.rxRemaining] = fl.Data
		e.rxRemaining--
		if e.rxRemaining == 0 {
			e.complete()
		}
	}
}

func (e *Endpoint) complete() {
	if m := e.rxMeta; m != nil {
		e.net.packetDelivered(e, m)
		if g := m.MC; g != nil && g.Path && m.MCIndex+1 < len(g.Dsts) {
			// Path-based multicast: this endpoint was an intermediate
			// stop. Absorb the copy (queued below like any delivery) and
			// re-inject the payload towards the next destination on the
			// path, under the next leg's pre-allocated metadata.
			next := m.MCIndex + 1
			e.stagePacket(g.Legs[next], g.Dsts[next], e.rxSpan)
		}
	}
	// The packet stays staged until Commit publishes it to Recv.
	e.rxq.push(rxPacket{meta: e.rxMeta, pos: e.rxPos, n: len(e.rxSpan)})
	e.rxPhase = phaseHeader
	e.received++
	e.owner.Wake()
}

// Idle implements sim.Idler: it reports whether the next Eval would
// stage nothing. An endpoint may sleep mid-reassembly and with flits
// queued behind a presented one, provided that no Send is staged, the
// link from its router has tx and ack low, and the link to its router
// has ack low and either tx high (a flit waits for its ack) or no
// committed flit to present. It is woken by Send (staged work), by a tx
// change on the link from its router or by an ack change on the link
// to it (both watched in NewEndpoint).
func (e *Endpoint) Idle() bool {
	if in := e.rcv.link; e.staged != 0 || in.Ack.Get() || in.Tx.Get() {
		return false
	}
	l := e.snd.link
	return !l.Ack.Get() && (l.Tx.Get() || e.txFlits == 0)
}

// Commit implements sim.Component.
func (e *Endpoint) Commit() {
	if e.popped > 0 {
		// The router accepted the presented flit this cycle.
		e.popped = 0
		e.txFlits--
		p := e.txq.at(0)
		if e.txHead == 0 {
			if m := e.net.Meta(p.id); m != nil {
				m.InjectCycle = e.clk.Cycle()
			}
		}
		if e.txHead++; e.txHead == int(p.size)+2 {
			// The tail left: free the payload and retire the packet.
			e.sent++
			e.sendWords.release(p.pos + int(p.size))
			e.txq.pop()
			e.txHead = 0
		}
	}
	e.txFlits += e.staged
	e.staged = 0
	e.rxReady = e.rxq.n
}
