package noc

import (
	"fmt"

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
	buf  *fifo

	// registered state
	route     Port // output port currently connected, PortNone if idle
	phase     int
	remaining int // payload flits still to forward in phasePayload

	// next-state
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
	nSrc Port
}

// control is the router's single centralized control logic (§2.1): a
// round-robin arbiter over the input ports and the XY routing engine.
// Serving one request takes routeDelay cycles, modelling the paper's
// Ri >= 7 routing-algorithm time. The delay is kept as an absolute
// completion cycle (with a WakeAt timer armed for it) rather than a
// per-cycle countdown, so a router whose ports are otherwise at rest
// can sleep through the routing delay and the time-warp kernel can
// skip it.
type control struct {
	serving    int // input port being served, -1 when idle
	completeAt uint64
	rr         int // round-robin scan start

	nServing    int
	nCompleteAt uint64
	nRR         int
}

// RouterStats aggregates observable activity of one router.
type RouterStats struct {
	// FlitsOut counts flits accepted by each output port's downstream
	// neighbour.
	FlitsOut [numPorts]uint64
	// PacketsRouted counts connections successfully established.
	PacketsRouted uint64
	// Grants counts control-logic grants (== PacketsRouted).
	Grants uint64
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
	stats      RouterStats
	// statsAt is the cycle through which the per-cycle stats integrals
	// (WaitCycles, BufferedFlitCycles) have been accumulated. A router
	// asleep through the routing delay has frozen registered state, so
	// the skipped cycles are integrated as span x frozen value on the
	// next Eval — bit-identical to dense per-cycle accumulation.
	statsAt uint64
}

// newRouter builds a router with all ports unconnected; the mesh builder
// wires links afterwards.
func newRouter(addr Addr, cfg Config, clk *sim.Clock) *Router {
	r := &Router{addr: addr, clk: clk, routing: cfg.Routing, routeDelay: cfg.internalRouteDelay()}
	for i := Port(0); i < numPorts; i++ {
		r.in[i] = inPort{port: i, buf: newFifo(cfg.BufDepth), route: PortNone, nRoute: PortNone}
		r.out[i] = outPort{port: i, src: PortNone, nSrc: PortNone}
	}
	r.ctl = control{serving: -1, nServing: -1}
	return r
}

// Addr reports the router's mesh coordinates.
func (r *Router) Addr() Addr { return r.addr }

// Clock returns the clock domain the router is registered in (its
// shard's clock on a sharded network).
func (r *Router) Clock() *sim.Clock { return r.clk }

// integrateStats adds span cycles of the registered per-port state to
// the WaitCycles and BufferedFlitCycles integrals in s. It is the one
// definition of those statistics, shared by Eval's per-cycle (or
// post-sleep) accumulation and Stats' mid-sleep flush.
func (r *Router) integrateStats(s *RouterStats, span uint64) (anyRequest bool) {
	for i := range r.in {
		p := &r.in[i]
		if p.requestActive() {
			anyRequest = true
			s.WaitCycles += span
		}
		if n := p.buf.Len(); n > 0 {
			s.BufferedFlitCycles += span * uint64(n)
		}
	}
	return anyRequest
}

// Stats returns a snapshot of the router's counters, with the per-cycle
// integrals brought up to the current cycle (a router asleep mid
// routing delay has not evaluated since it fell asleep; its registered
// state was frozen throughout, so the pending span integrates exactly).
func (r *Router) Stats() RouterStats {
	s := r.stats
	if now := r.clk.Cycle(); now > r.statsAt {
		r.integrateStats(&s, now-r.statsAt)
	}
	return s
}

// connectIn attaches the upstream link arriving at port p. The router
// watches the link's tx so an arriving flit wakes it from idle sleep.
func (r *Router) connectIn(p Port, l *Link) {
	r.in[p].rcv.link = l
	sim.Watch(l.Tx, r)
}

// connectOut attaches the downstream link leaving port p.
func (r *Router) connectOut(p Port, l *Link) { r.out[p].snd.link = l }

// Name implements sim.Component.
func (r *Router) Name() string { return fmt.Sprintf("router%s", r.addr) }

// Eval implements sim.Component. All reads observe registered state; all
// mutations are staged for Commit.
func (r *Router) Eval() {
	evalNow := r.clk.Cycle() + 1
	span := evalNow - r.statsAt
	r.statsAt = evalNow

	// Input side: snapshot next-state and accept flits from upstream.
	for i := range r.in {
		p := &r.in[i]
		p.nRoute, p.nPhase, p.nRemaining = p.route, p.phase, p.remaining
		// A port whose handshake is at rest (incoming tx low, ack low)
		// is skipped: its eval would stage nothing, so the staged
		// receiver state already equals the committed state.
		if l := p.rcv.link; l != nil && (l.Tx.Get() || p.rcv.ackHigh) {
			p.rcv.eval(
				func() bool { return p.buf.Free() > 0 },
				func(f Flit) { p.buf.StagePush(f) },
			)
		}
	}
	// Statistics integrate registered state only (route, phase,
	// committed buffer length), which nothing in this Eval mutates. The
	// span exceeds one cycle only after the router slept, and a
	// sleeping router's registered state is frozen, so span x current
	// value equals the dense per-cycle sum.
	anyRequest := r.integrateStats(&r.stats, span)
	for i := range r.out {
		r.out[i].nSrc = r.out[i].src
	}
	r.ctl.nServing, r.ctl.nCompleteAt, r.ctl.nRR = r.ctl.serving, r.ctl.completeAt, r.ctl.rr

	// Output side: stream flits of established connections downstream.
	for i := range r.out {
		o := &r.out[i]
		if o.snd.link == nil || o.src == PortNone {
			if o.snd.link != nil && (o.snd.busy || o.snd.link.Tx.Peek()) {
				// Finish deasserting tx on a just-closed connection;
				// fully idle senders are skipped.
				o.snd.eval(func() bool { return false }, func() Flit { return Flit{} }, func() {})
			}
			continue
		}
		p := &r.in[o.src]
		popped := 0
		o.snd.eval(
			func() bool {
				// Connection may have been closed by the accepted()
				// callback this same cycle; the next buffered flit then
				// belongs to the following packet and must not leak.
				return p.nRoute == o.port && p.buf.Len()-popped > 0
			},
			func() Flit { return p.buf.At(popped) },
			func() {
				fl := p.buf.At(popped)
				p.buf.StagePop()
				popped++
				r.stats.FlitsOut[o.port]++
				r.forwarded(p, o, fl)
			},
		)
	}

	// Control logic: serve at most one routing request at a time.
	r.evalControl(anyRequest, evalNow)
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

func (r *Router) evalControl(anyRequest bool, evalNow uint64) {
	c := &r.ctl
	if c.serving < 0 {
		if !anyRequest {
			return
		}
		for k := 0; k < int(numPorts); k++ {
			i := (c.rr + k) % int(numPorts)
			if r.in[i].requestActive() {
				c.nServing = i
				c.nCompleteAt = evalNow + uint64(r.routeDelay)
				c.nRR = (i + 1) % int(numPorts)
				// The delay is a pure countdown: if every port goes
				// quiet the router may sleep through it, so arm a
				// timer for the completion cycle.
				r.self.WakeAt(c.nCompleteAt)
				return
			}
		}
		return
	}
	if evalNow < c.completeAt {
		return
	}
	// Routing algorithm completes this cycle.
	c.nServing = -1
	p := &r.in[c.serving]
	if !p.requestActive() {
		return // request evaporated (should not happen; defensive)
	}
	dst := DecodeAddr(p.buf.Head().Data)
	o := r.routing(r.addr, dst, p.port)
	if o < 0 || o >= numPorts || r.out[o].snd.link == nil {
		// Misroute towards a nonexistent port: drop the request to a
		// detectable stuck state rather than corrupting the crossbar.
		r.stats.BlockedAttempts++
		return
	}
	if r.out[o].src != PortNone || r.out[o].nSrc != PortNone {
		// Output busy: the request stays active and will be retried in
		// a future execution of the procedure (§2.1).
		r.stats.BlockedAttempts++
		return
	}
	p.nRoute = o
	r.out[o].nSrc = p.port
	r.stats.Grants++
	r.stats.PacketsRouted++
}

// Idle implements sim.Idler. A router may sleep when every input port's
// handshake is at rest (incoming tx low, ack low), no wormhole
// connection is open, and every output sender is idle. Buffered flits
// are allowed while the control logic is mid routing-delay: nothing
// about them changes until the armed timer fires, and the
// span-integrated stats account for the skipped cycles. With the
// control idle, any buffered header is a request the next Eval's
// arbiter scan must see, so the router stays awake. In the sleepable
// states Eval stages nothing and drives every wire at its rest value;
// the router is woken by the rising tx of an incoming link (watched in
// connectIn) or by its routing-delay timer.
func (r *Router) Idle() bool {
	serving := r.ctl.serving >= 0
	for i := range r.in {
		p := &r.in[i]
		if p.rcv.ackHigh || p.route != PortNone || p.phase != phaseHeader {
			return false
		}
		if l := p.rcv.link; l != nil && l.Tx.Get() {
			return false
		}
		if !serving && p.buf.Len() > 0 {
			return false
		}
	}
	for i := range r.out {
		if r.out[i].snd.busy {
			return false
		}
	}
	return true
}

// Commit implements sim.Component.
func (r *Router) Commit() {
	for i := range r.in {
		p := &r.in[i]
		p.buf.Commit()
		p.rcv.commit()
		p.route, p.phase, p.remaining = p.nRoute, p.nPhase, p.nRemaining
	}
	for i := range r.out {
		o := &r.out[i]
		o.snd.commit()
		o.src = o.nSrc
	}
	r.ctl.serving, r.ctl.completeAt, r.ctl.rr = r.ctl.nServing, r.ctl.nCompleteAt, r.ctl.nRR
}
