package noc

import (
	"fmt"
	"math/bits"

	"repro/internal/sim"
)

// PortNone marks an unconnected crossbar endpoint.
const PortNone Port = -1

// wormhole parse phases of an input port's flit stream.
const (
	phaseHeader  = iota // head of buffer is (or will be) a header flit
	phaseSize           // next flit to forward is the size flit
	phasePayload        // `remaining` payload flits left to forward
)

// inPort is one of the router's five input ports: a link receiver, the
// circular FIFO buffer of Figure 2, and the wormhole state tracking the
// packet currently flowing through the port.
type inPort struct {
	port Port
	rcv  receiver
	buf  fifo

	// registered state
	route     Port // output port currently connected, PortNone if idle
	phase     int
	remaining int // payload flits still to forward in phasePayload

	// next-state, equal to the registered state outside Eval
	nRoute     Port
	nPhase     int
	nRemaining int
}

// requestActive reports whether this port's head flit is a header
// waiting for the control logic (judged on registered state).
func (p *inPort) requestActive() bool {
	return p.route == PortNone && p.phase == phaseHeader && p.buf.Len() > 0
}

// outPort is one of the five output ports: a link sender plus the
// crossbar selector naming the input port it is connected to.
type outPort struct {
	port Port
	snd  sender

	src  Port // connected input port, PortNone if free
	nSrc Port // equal to src outside Eval
}

// control is the router's single centralized control logic (§2.1): a
// round-robin arbiter over the input ports and the XY routing engine.
// Serving one request takes routeDelay cycles, modelling the paper's
// Ri >= 7 routing-algorithm time. The arbiter scans on the edge: when
// Commit leaves the control free with a header waiting, it starts the
// next request in round-robin order at once (see arbitrate), so a
// pending request never keeps the router awake. The delay is kept as
// an absolute completion cycle (with a WakeAt timer armed for it)
// rather than a per-cycle countdown, so a router whose ports stage
// nothing can sleep through the routing delay, open wormholes and all,
// and the time-warp kernel can skip it when the whole mesh does. The
// Eval of that cycle completes the request. The control has no
// next-state fields: Eval writes serving directly, because nothing
// reads it again before Commit.
type control struct {
	serving    int // input port being served, -1 when idle
	completeAt uint64
	rr         int // round-robin scan start
}

// RouterStats aggregates observable activity of one router.
type RouterStats struct {
	// FlitsOut counts flits accepted by each output port's downstream
	// neighbour.
	FlitsOut [numPorts]uint64
	// PacketsRouted counts connections successfully established.
	PacketsRouted uint64
	// BlockedAttempts counts routing attempts that found the output
	// port busy and had to be retried later.
	BlockedAttempts uint64
	// WaitCycles accumulates cycles input ports spent with a header
	// waiting for a connection.
	WaitCycles uint64
	// BufferedFlitCycles accumulates buffer occupancy integrated over
	// time, for mean-occupancy reporting.
	BufferedFlitCycles uint64
}

// TotalFlits is the sum of flits sent through all output ports.
func (s RouterStats) TotalFlits() uint64 {
	var t uint64
	for _, v := range s.FlitsOut {
		t += v
	}
	return t
}

// Router is one Hermes router (Figure 2): five bidirectional ports, an
// input buffer per port, a centralized control logic implementing
// round-robin arbitration and XY routing, and a crossbar able to hold up
// to five simultaneous connections.
type Router struct {
	addr       Addr
	clk        *sim.Clock
	self       sim.Handle // pre-resolved wake token, set at registration
	routing    RoutingFunc
	routeDelay int // internal cycles per routing-algorithm execution
	in         [numPorts]inPort
	out        [numPorts]outPort
	ctl        control
	// staged marks the ports Eval staged on: bit i for input port i,
	// bit numPorts+i for output port i. Every other port's next state
	// already equals its registered state, so Commit latches only
	// these.
	staged uint16
	// waiting counts the input ports whose head is a header waiting for
	// the control, and buffered the flits in the input buffers. Commit
	// keeps both as it latches.
	waiting, buffered int
	// idle is Idle's answer, computed by Commit.
	idle  bool
	stats RouterStats
	// statsAt is the cycle through which the per-cycle stats integrals
	// (WaitCycles, BufferedFlitCycles) have been accumulated. A sleeping
	// router has frozen registered state, so the skipped cycles are
	// integrated as span x frozen value on the next Eval — bit-identical
	// to dense per-cycle accumulation.
	statsAt uint64
}

// init readies a zero router in place (routers live in the network's
// slab) with all ports unconnected; the mesh builder wires links
// afterwards. slots backs the five input buffers, cfg.BufDepth flits
// each.
func (r *Router) init(addr Addr, cfg Config, clk *sim.Clock, slots []Flit) {
	r.addr, r.clk, r.routing, r.routeDelay = addr, clk, cfg.Routing, cfg.internalRouteDelay()
	d := cfg.BufDepth
	for i := Port(0); i < numPorts; i++ {
		k := int(i) * d
		r.in[i] = inPort{port: i, buf: fifo{slots: slots[k : k+d]}, route: PortNone, nRoute: PortNone}
		r.out[i] = outPort{port: i, src: PortNone, nSrc: PortNone}
	}
	r.ctl = control{serving: -1}
	r.idle = true
}

// Addr reports the router's mesh coordinates.
func (r *Router) Addr() Addr { return r.addr }

// Clock returns the clock the router is registered on: the network's.
func (r *Router) Clock() *sim.Clock { return r.clk }

// integrateStats adds span cycles of the registered waiting and
// buffered counts to the WaitCycles and BufferedFlitCycles integrals in
// s. It is the one definition of those statistics, shared by Eval's
// per-cycle (or post-sleep) accumulation and Stats' mid-sleep flush.
func (r *Router) integrateStats(s *RouterStats, span uint64) {
	s.WaitCycles += span * uint64(r.waiting)
	s.BufferedFlitCycles += span * uint64(r.buffered)
}

// Stats returns a snapshot of the router's counters, with the per-cycle
// integrals brought up to the current cycle (a sleeping router has not
// evaluated since it fell asleep; its registered state was frozen
// throughout, so the pending span integrates exactly).
func (r *Router) Stats() RouterStats {
	s := r.stats
	if now := r.clk.Cycle(); now > r.statsAt {
		r.integrateStats(&s, now-r.statsAt)
	}
	return s
}

// connectIn attaches the upstream link arriving at port p. The router
// watches the link's tx so an arriving flit wakes it.
func (r *Router) connectIn(p Port, l *Link) {
	r.in[p].rcv.link = l
	sim.Watch(&l.Tx, r)
}

// connectOut attaches the downstream link leaving port p. The router
// watches the link's ack so the acceptance of a presented flit wakes
// it.
func (r *Router) connectOut(p Port, l *Link) {
	r.out[p].snd.link = l
	sim.Watch(&l.Ack, r)
}

// Name implements sim.Component.
func (r *Router) Name() string { return fmt.Sprintf("router%s", r.addr) }

// Eval implements sim.Component. All reads observe registered state; all
// mutations are staged for Commit, and each port staged on is marked in
// staged.
func (r *Router) Eval() {
	evalNow := r.clk.Cycle() + 1
	// Statistics integrate registered state only, which nothing in this
	// Eval mutates. The span exceeds one cycle only after the router
	// slept, and a sleeping router's registered state is frozen, so
	// span x current value equals the dense per-cycle sum.
	r.integrateStats(&r.stats, evalNow-r.statsAt)
	r.statsAt = evalNow

	// Input side: accept flits from upstream. A port whose handshake is
	// at rest (incoming tx low, ack low) is skipped: its eval would
	// stage nothing.
	for i := range r.in {
		p := &r.in[i]
		if l := p.rcv.link; l != nil && (l.Tx.Get() || p.rcv.ackHigh) {
			f, ok := p.rcv.eval(p.buf.Free() > 0)
			if ok {
				p.buf.StagePush(f)
			}
			if ok || p.rcv.ackHigh {
				r.staged |= 1 << i
			}
		}
	}
	// Output side: stream flits of established connections downstream.
	for i := range r.out {
		o := &r.out[i]
		if o.src == PortNone {
			continue
		}
		p := &r.in[o.src]
		popped := 0
		accepted, free := o.snd.begin()
		if accepted {
			fl := p.buf.Head()
			p.buf.StagePop()
			popped = 1
			r.stats.FlitsOut[i]++
			r.forwarded(p, o, fl)
			r.staged |= 1<<o.src | 1<<(numPorts+o.port)
		}
		if free {
			// An accepted tail closed the connection this cycle; the
			// next buffered flit then belongs to the following packet
			// and must not leak.
			if p.nRoute == o.port && p.buf.Len() > popped {
				o.snd.offer(p.buf.At(popped))
				r.staged |= 1 << (numPorts + o.port)
			} else {
				o.snd.drop()
			}
		}
	}

	// Control logic: complete the request being served once its
	// routing delay has run.
	if r.ctl.serving >= 0 && evalNow >= r.ctl.completeAt {
		r.route()
	}
}

// forwarded advances the wormhole parse state after a flit of input port
// p was accepted downstream, closing the connection after the tail flit.
func (r *Router) forwarded(p *inPort, o *outPort, fl Flit) {
	switch p.nPhase {
	case phaseHeader:
		p.nPhase = phaseSize
	case phaseSize:
		p.nRemaining = int(fl.Data)
		p.nPhase = phasePayload
		if p.nRemaining == 0 {
			r.closeConnection(p, o)
		}
	case phasePayload:
		p.nRemaining--
		if p.nRemaining == 0 {
			r.closeConnection(p, o)
		}
	}
}

func (r *Router) closeConnection(p *inPort, o *outPort) {
	p.nRoute = PortNone
	p.nPhase = phaseHeader
	o.nSrc = PortNone
}

// route runs the routing algorithm for the header of the input port
// being served and frees the control. It connects the header's output
// port when that is free; when it is busy, the request stays active and
// is retried in a later execution of the procedure (§2.1).
func (r *Router) route() {
	p := &r.in[r.ctl.serving]
	r.ctl.serving = -1
	dst := DecodeAddr(p.buf.Head().Data)
	o := r.routing(r.addr, dst, p.port)
	if o < 0 || o >= numPorts || r.out[o].snd.link == nil {
		// Misroute towards a nonexistent port: drop the request to a
		// detectable stuck state rather than corrupting the crossbar.
		r.stats.BlockedAttempts++
		return
	}
	if r.out[o].src != PortNone || r.out[o].nSrc != PortNone {
		r.stats.BlockedAttempts++
		return
	}
	p.nRoute = o
	r.out[o].nSrc = p.port
	r.staged |= 1<<p.port | 1<<(numPorts+o)
	r.stats.PacketsRouted++
}

// arbitrate starts serving the first waiting header in round-robin
// order. Commit runs it on the edge, over the state it has just
// latched: exactly what the next Eval would read, so the routing delay
// starts on the cycle that Eval would have started it and arms the same
// timer.
func (r *Router) arbitrate() {
	c := &r.ctl
	for k := 0; k < int(numPorts); k++ {
		i := (c.rr + k) % int(numPorts)
		if r.in[i].requestActive() {
			c.serving = i
			// Commit runs before the edge advances the cycle count, so
			// the next Eval is in the step that ends at Cycle()+2.
			c.completeAt = r.clk.Cycle() + 2 + uint64(r.routeDelay)
			c.rr = (i + 1) % int(numPorts)
			// The delay is a pure countdown: if every port goes quiet
			// the router sleeps through it, so arm a timer for the
			// completion cycle.
			r.self.WakeAt(c.completeAt)
			return
		}
	}
}

// Idle implements sim.Idler: it reports whether the next Eval would
// stage nothing. Commit computes the answer (see settled), after
// starting any waiting header's routing delay, so a header waiting for
// the control never keeps the router awake.
func (r *Router) Idle() bool { return r.idle }

// settled reports whether the next Eval would stage nothing. A router
// may sleep with open wormholes, buffered flits, busy senders and
// headers waiting for the control, provided that
//   - no input holds ack, or sees tx high with buffer space to accept;
//   - no output sees an ack, or is free to present a flit of its
//     connection or to drop tx.
//
// The control never keeps it awake: after Commit it is either mid
// routing-delay, with a timer armed, or has no request to serve.
//
// Each of these ends only through an event that wakes the router on
// the cycle a dense run would act on it: a tx change on an input link
// or an ack change on an output link (both watched, see connectIn and
// connectOut), the routing-delay timer, or the router's own Eval (a pop
// that frees buffer space, a push that raises a request), which runs
// because the router is awake then anyway.
//
// Commit calls it on the state it has just latched. It reads each link
// wire through Peek, which is exactly what the coming latch publishes,
// because link wires are Set only during Eval.
func (r *Router) settled() bool {
	for i := range r.in {
		p := &r.in[i]
		if p.rcv.ackHigh {
			return false
		}
		if l := p.rcv.link; l != nil && l.Tx.Peek() && p.buf.Free() > 0 {
			return false
		}
	}
	for i := range r.out {
		o := &r.out[i]
		l := o.snd.link
		if l == nil {
			continue
		}
		if l.Ack.Peek() {
			return false
		}
		if !o.snd.busy && (l.Tx.Peek() || o.src != PortNone && r.in[o.src].buf.Len() > 0) {
			return false
		}
	}
	return true
}

// Commit implements sim.Component. It latches the ports Eval staged
// on, keeping the waiting and buffered counts, starts the next request
// when the control is free and a header waits, then computes Idle's
// answer.
func (r *Router) Commit() {
	for m := r.staged; m != 0; m &= m - 1 {
		i := bits.TrailingZeros16(m)
		if i < int(numPorts) {
			r.commitIn(&r.in[i])
		} else {
			o := &r.out[i-int(numPorts)]
			o.snd.commit()
			o.src = o.nSrc
		}
	}
	r.staged = 0
	if r.ctl.serving < 0 && r.waiting > 0 {
		r.arbitrate()
	}
	r.idle = r.settled()
}

// commitIn latches input port p and updates the waiting and buffered
// counts by its change.
func (r *Router) commitIn(p *inPort) {
	was, n := p.requestActive(), p.buf.Len()
	p.buf.Commit()
	p.rcv.commit()
	p.route, p.phase, p.remaining = p.nRoute, p.nPhase, p.nRemaining
	r.buffered += p.buf.Len() - n
	if is := p.requestActive(); is != was {
		if is {
			r.waiting++
		} else {
			r.waiting--
		}
	}
}
