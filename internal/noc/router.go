package noc

import (
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
	// want is the output the routing function picks for the waiting
	// header, computed once, when the header reaches the head of the
	// buffer (see commitIn); it is stale while the port is not waiting.
	want Port

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
// round-robin arbiter over the input ports and the routing engine.
// Serving one request takes routeDelay cycles, modelling the paper's
// Ri >= 7 routing-algorithm time; a request whose output is busy is
// retried in a later execution, so while headers wait the control
// completes one attempt every routeDelay+1 cycles. The waiting headers
// are a bit mask that commitIn keeps, with each one's output computed
// when it reaches the head of its buffer. The arbiter scans on the
// edge: when Commit leaves the control free with a header waiting, it
// starts the next request in round-robin order at once (see
// arbitrate), so a pending request never keeps the router awake. The
// delay is kept as an absolute completion cycle rather than a per-cycle
// countdown, so a router whose ports stage nothing can sleep through
// it, open wormholes and all; the Eval of that cycle completes the
// request. A router that falls asleep mid-delay arms a WakeAt timer for
// that cycle, which the time-warp kernel can skip to, unless every
// waiting header is blocked (see blocked); then its next Eval applies
// the attempts it slept through (see catchUp). The control has no
// next-state fields: Eval writes serving directly, because nothing
// reads it again before Commit.
type control struct {
	serving    int // input port being served, -1 when idle
	completeAt uint64
	rr         int   // round-robin scan start
	waiting    uint8 // bit i: input port i's head is a waiting header
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
	self       sim.Handle // wakes this router
	routing    RoutingFunc
	routeDelay int // internal cycles per routing-algorithm execution
	in         [numPorts]inPort
	out        [numPorts]outPort
	ctl        control
	// staged marks the ports whose state Eval changed: bit i for input
	// port i (a push, a pop or a new route), bit numPorts+i for output
	// port i (route or closeConnection changed its source). The
	// handshake lives on the link wires, which latch themselves, and
	// every other port's next state already equals its registered
	// state, so Commit latches only these.
	staged uint16
	// buffered counts the flits in the input buffers. Commit keeps it,
	// and the control's waiting mask, as it latches.
	buffered int
	// The live ports, bit i for port i: txHigh the inputs whose tx
	// Eval last read high, acking the inputs whose ack the router holds
	// high (Eval stages it, the edge latches it) and conn the outputs
	// with a connection (Commit keeps it as it latches). An input in
	// neither mask and unmarked in the change mask (the edge that
	// changes an input's tx marks its bit, see connectIn) has tx and
	// ack low, so Eval and Idle skip it.
	txHigh, acking, conn uint8
	// The waiting ports, bit i for port i: full the inputs whose buffer
	// is full (commitIn keeps it) and presenting the outputs whose tx
	// the router drives high (offer sets the bit, drop clears it). A
	// full input that holds no ack and whose tx did not change accepts
	// nothing, and its buffer frees only in the router's own Commit. An
	// output presenting a flit needs the router only when its ack rises,
	// and the edge that changes an output's ack marks bit numPorts+i
	// (see connectOut). So Eval skips both, and Idle the full inputs.
	full, presenting uint8
	// idle is Commit's part of Idle's answer: every term but the
	// inputs' tx (see settled).
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

// integrateStats adds span cycles of the registered waiting and
// buffered counts to the WaitCycles and BufferedFlitCycles integrals in
// s. It is the one definition of those statistics, shared by Eval's
// per-cycle (or post-sleep) accumulation and Stats' mid-sleep flush.
func (r *Router) integrateStats(s *RouterStats, span uint64) {
	s.WaitCycles += span * uint64(bits.OnesCount8(r.ctl.waiting))
	s.BufferedFlitCycles += span * uint64(r.buffered)
}

// Stats returns a snapshot of the router's counters brought up to the
// current cycle: the per-cycle integrals and the blocked attempts a
// router sleeping without a timer has made (a sleeping router has not
// evaluated since it fell asleep; its registered state was frozen
// throughout, so the pending span integrates exactly and every attempt
// in it was blocked).
func (r *Router) Stats() RouterStats {
	s := r.stats
	now := r.clk.Cycle()
	if now > r.statsAt {
		r.integrateStats(&s, now-r.statsAt)
	}
	s.BlockedAttempts += r.sleptAttempts(now)
	return s
}

// connectIn attaches the upstream link arriving at port p. The router
// watches the link's tx so an arriving flit wakes it, and a change
// marks bit p of its change mask.
func (r *Router) connectIn(p Port, l *Link) {
	r.in[p].rcv.link = l
	sim.Watch(&l.Tx, r.self, 1<<p)
}

// connectOut attaches the downstream link leaving port p. The router
// watches the link's ack so the acceptance of a presented flit wakes
// it, and a change marks bit numPorts+p of its change mask.
func (r *Router) connectOut(p Port, l *Link) {
	r.out[p].snd.link = l
	sim.Watch(&l.Ack, r.self, 1<<(numPorts+p))
}

// Eval implements sim.Component. All reads observe registered state; all
// mutations are staged for Commit, and each port staged on is marked in
// staged. It visits only the live ports that do not wait (see the
// masks on Router).
func (r *Router) Eval() {
	evalNow := r.clk.Cycle() + 1
	// Statistics integrate registered state only, which nothing in this
	// Eval mutates. The span exceeds one cycle only after the router
	// slept, and a sleeping router's registered state is frozen, so
	// span x current value equals the dense per-cycle sum.
	r.integrateStats(&r.stats, evalNow-r.statsAt)
	r.statsAt = evalNow
	// Likewise, apply the attempts the control completed, all blocked,
	// while the router slept without a timer.
	if n := r.sleptAttempts(evalNow - 1); n > 0 {
		r.catchUp(n)
	}

	// Input side: accept flits from upstream. Only the live inputs that
	// do not wait are visited: those whose tx was high at the last read
	// and whose buffer has space, those holding ack, and those whose tx
	// has changed since. Any other input's handshake is at rest (tx low,
	// ack low) or faces a full buffer with no ack to drop, and its eval
	// would stage nothing.
	changed := r.self.TakeChanged()
	for m := r.txHigh&^r.full | r.acking | uint8(changed)&(1<<numPorts-1); m != 0; m &= m - 1 {
		i := bits.TrailingZeros8(m)
		p, bit := &r.in[i], uint8(1)<<i
		if p.rcv.link.Tx.Get() {
			r.txHigh |= bit
		} else {
			r.txHigh &^= bit
		}
		if f, ok := p.rcv.eval(r.full&bit == 0); ok {
			p.buf.StagePush(f)
			r.staged |= 1 << i
			r.acking |= bit
		} else {
			r.acking &^= bit
		}
	}
	// Output side: stream flits of established connections downstream.
	// An output presenting a flit is visited only when the edge changed
	// its ack: until its ack rises, its begin would see no acceptance
	// and leave it presenting.
	for m := r.conn &^ (r.presenting &^ uint8(changed>>numPorts)); m != 0; m &= m - 1 {
		i := bits.TrailingZeros8(m)
		o := &r.out[i]
		p := &r.in[o.src]
		popped := 0
		accepted, free := o.snd.begin()
		if accepted {
			fl := p.buf.Head()
			p.buf.StagePop()
			popped = 1
			r.stats.FlitsOut[i]++
			r.forwarded(p, o, fl)
			r.staged |= 1 << o.src
		}
		if free {
			// An accepted tail closed the connection this cycle; the
			// next buffered flit then belongs to the following packet
			// and must not leak.
			if p.nRoute == o.port && p.buf.Len() > popped {
				o.snd.offer(p.buf.At(popped))
				r.presenting |= 1 << i
			} else {
				o.snd.drop()
				r.presenting &^= 1 << i
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
	r.staged |= 1 << (numPorts + o.port)
}

// route runs the routing algorithm for the header of the input port
// being served and frees the control. It connects the header's output
// port when that is free; when it is busy, the request stays active and
// is retried in a later execution of the procedure (§2.1).
func (r *Router) route() {
	p := &r.in[r.ctl.serving]
	r.ctl.serving = -1
	o := p.want
	if r.misrouted(o) {
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

// misrouted reports whether o names no output with a link.
func (r *Router) misrouted(o Port) bool {
	return o < 0 || o >= numPorts || r.out[o].snd.link == nil
}

// arbitrate starts serving the first waiting header in round-robin
// order. Commit runs it on the edge, over the state it has just
// latched: exactly what the next Eval would read, so the routing delay
// starts on the cycle that Eval would have started it. Commit arms the
// delay's timer if the router falls asleep and needs one.
func (r *Router) arbitrate() {
	c := &r.ctl
	c.serving = r.nextWaiting(c.rr)
	// Commit runs before the edge advances the cycle count, so the next
	// Eval is in the step that ends at Cycle()+2.
	c.completeAt = r.clk.Cycle() + 2 + uint64(r.routeDelay)
	c.rr = (c.serving + 1) % int(numPorts)
}

// nextWaiting returns the first input port at or after from, in
// round-robin order, whose head is a waiting header: the waiting mask
// rotated to start at from, scanned for its lowest set bit. The mask
// must not be empty.
func (r *Router) nextWaiting(from int) int {
	m := uint(r.ctl.waiting)
	m = (m>>from | m<<(int(numPorts)-from)) & (1<<numPorts - 1)
	return (from + bits.TrailingZeros(m)) % int(numPorts)
}

// blocked reports whether every waiting header wants an output that is
// connected to another input. A router that sleeps in that state needs
// no routing-delay timer: its registered state is frozen, so every
// attempt the control completes before it wakes is blocked, and the
// output a header waits for frees only in the router's own Eval, woken
// by the ack that takes the connection's tail flit. That connection
// belongs to a packet still moving (the routing is deadlock-free), so
// the mesh is not quiescent meanwhile. A misrouted header, or one whose
// output is free, is not blocked.
func (r *Router) blocked() bool {
	for m := r.ctl.waiting; m != 0; m &= m - 1 {
		o := r.in[bits.TrailingZeros8(m)].want
		if r.misrouted(o) || r.out[o].src == PortNone {
			return false
		}
	}
	return true
}

// sleptAttempts counts the routing attempts of the current request
// that completed through cycle now: none unless the router slept past
// the completion cycle without a timer, and then every one was blocked.
func (r *Router) sleptAttempts(now uint64) uint64 {
	c := &r.ctl
	if c.serving < 0 || c.completeAt > now {
		return 0
	}
	return (now-c.completeAt)/uint64(r.routeDelay+1) + 1
}

// catchUp applies n blocked attempts the router slept through, exactly
// as the stepped control makes them: each counts as blocked, and
// Commit's scan then hands the control to the next waiting header in
// round-robin order, whose attempt completes routeDelay+1 cycles
// later. The waiting mask did not change during the sleep, so the
// scan cycles through it.
func (r *Router) catchUp(n uint64) {
	c := &r.ctl
	r.stats.BlockedAttempts += n
	c.completeAt += n * uint64(r.routeDelay+1)
	for k := n % uint64(bits.OnesCount8(c.waiting)); k > 0; k-- {
		c.serving = r.nextWaiting(c.rr)
		c.rr = (c.serving + 1) % int(numPorts)
	}
}

// Idle implements sim.Idler: it reports whether the next Eval would
// stage nothing. Commit computes every term but the inputs' tx (see
// settled), after starting any waiting header's routing delay, so a
// header waiting for the control never keeps the router awake. Idle
// adds the inputs' tx after the edge, from the masks: a full input
// accepts nothing whatever its tx, an input's tx is high now if Eval
// read it high and it did not change at this edge, and only the inputs
// with buffer space whose tx changed at this edge are read again. That
// is the exact answer under every kernel, after every edge, which
// dense's Quiescent needs too: Eval takes the change mask, so it holds
// this edge's changes alone.
func (r *Router) Idle() bool {
	if !r.idle {
		return false
	}
	changed := uint8(r.self.Changed()) & (1<<numPorts - 1)
	for m := (r.txHigh | changed) &^ r.full; m != 0; m &= m - 1 {
		i := bits.TrailingZeros8(m)
		if changed&(1<<i) == 0 || r.in[i].rcv.link.Tx.Get() {
			return false
		}
	}
	return true
}

// settled reports whether the next Eval would stage nothing as far as
// the router's own state and its outputs tell. A router may sleep with
// open wormholes, buffered flits, flits presented and waiting for their
// ack, and headers waiting for the control, provided that
//   - no input holds ack, or sees tx high with buffer space to accept
//     (the second term is Idle's, after the edge);
//   - no output sees an ack, or has tx low with a flit of its
//     connection buffered to present.
//
// The control never keeps it awake: after Commit it is either mid
// routing-delay, with a timer armed unless every waiting header is
// blocked (see blocked), or has no request to serve.
//
// Each of these ends only through an event that wakes the router on
// the cycle a dense run would act on it: a tx change on an input link
// or an ack change on an output link (both watched, see connectIn and
// connectOut), the routing-delay timer, or the router's own Eval (a pop
// that frees buffer space, a push that raises a request), which runs
// because the router is awake then anyway. A blocked header's attempts
// end nothing, so the router sleeps through them and counts them when
// it wakes.
//
// Commit calls it on the state it has just latched. The inputs' ack is
// the acking mask, which the router drives itself. An output without a
// connection has tx and ack low: its tail's ack, which closed the
// connection, fell on the edge the close latches on. Only the connected
// outputs' handshake is read, from the link wires through Peek, which
// is exactly what the coming latch publishes, because link wires are
// Set only during Eval.
func (r *Router) settled() bool {
	if r.acking != 0 {
		return false
	}
	for m := r.conn; m != 0; m &= m - 1 {
		o := &r.out[bits.TrailingZeros8(m)]
		l := o.snd.link
		if l.Ack.Peek() || !l.Tx.Peek() && r.in[o.src].buf.Len() > 0 {
			return false
		}
	}
	return true
}

// Commit implements sim.Component. It latches the ports Eval staged
// on, keeping the waiting mask, the buffered count and the connected
// outputs, starts the next request when the control is free and a
// header waits, then computes its part of Idle's answer. A router that
// may fall asleep mid routing-delay arms a timer for its completion
// unless every waiting header is blocked. It arms it on its own part
// of the answer, before Idle adds the inputs' tx, so also when an input
// keeps the router awake. That changes no evaluation: until the timer
// fires no header is routed, so the request, its completion cycle and a
// header that is not blocked all stay as they are, and the router is
// either still awake when the timer fires or fell asleep since and
// armed the same timer.
func (r *Router) Commit() {
	for m := r.staged; m != 0; m &= m - 1 {
		i := bits.TrailingZeros16(m)
		if i < int(numPorts) {
			r.commitIn(&r.in[i])
		} else {
			o := &r.out[i-int(numPorts)]
			o.src = o.nSrc
			if bit := uint8(1) << o.port; o.src != PortNone {
				r.conn |= bit
			} else {
				r.conn &^= bit
			}
		}
	}
	r.staged = 0
	if r.ctl.serving < 0 && r.ctl.waiting != 0 {
		r.arbitrate()
	}
	r.idle = r.settled()
	if r.idle && r.ctl.serving >= 0 && !r.blocked() {
		r.self.WakeAt(r.ctl.completeAt)
	}
}

// commitIn latches input port p and updates the waiting mask, the full
// mask and the buffered count by its change. A header that has just
// reached the head of the buffer is routed here, once: the routing
// function is deterministic, and the head does not change while the
// header waits.
func (r *Router) commitIn(p *inPort) {
	n := p.buf.Len()
	p.buf.Commit()
	p.route, p.phase, p.remaining = p.nRoute, p.nPhase, p.nRemaining
	r.buffered += p.buf.Len() - n
	bit := uint8(1) << p.port
	if p.buf.Free() == 0 {
		r.full |= bit
	} else {
		r.full &^= bit
	}
	if p.requestActive() != (r.ctl.waiting&bit != 0) {
		r.ctl.waiting ^= bit
		if r.ctl.waiting&bit != 0 {
			p.want = r.routing(r.addr, DecodeAddr(p.buf.Head().Data), p.port)
		}
	}
}
