package noc

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// refIdle is the reference for Router.Idle: the predicate walked from
// scratch over all ten ports, reading the router's registered state
// and its link wires after the edge. An input's receiver holds ack
// exactly while its latched ack is high, and an output's sender is
// busy, a flit presented and waiting for its ack, exactly while its
// latched tx is high.
func refIdle(r *Router) bool {
	serving := r.ctl.serving >= 0
	for i := range r.in {
		p := &r.in[i]
		l := p.rcv.link
		ackHigh := l != nil && l.Ack.Get()
		if ackHigh || !serving && p.requestActive() {
			return false
		}
		if l != nil && l.Tx.Get() && p.buf.Free() > 0 {
			return false
		}
	}
	for i := range r.out {
		o := &r.out[i]
		l := o.snd.link
		if l == nil {
			continue
		}
		if l.Ack.Get() {
			return false
		}
		busy := l.Tx.Get()
		if !busy && (l.Tx.Get() || o.src != PortNone && r.in[o.src].buf.Len() > 0) {
			return false
		}
	}
	return true
}

// checkCounters fails unless r's waiting mask, each waiting header's
// stored output and the buffered count equal a recount over its input
// ports, and reports how many headers wait and flits are buffered.
func checkCounters(t *testing.T, cycle uint64, r *Router) (waiting, buffered int) {
	t.Helper()
	var mask uint8
	for j := range r.in {
		p := &r.in[j]
		buffered += p.buf.Len()
		if !p.requestActive() {
			continue
		}
		mask |= 1 << j
		waiting++
		if want := r.routing(r.addr, DecodeAddr(p.buf.Head().Data), p.port); p.want != want {
			t.Fatalf("cycle %d: router %s port %s stores output %s, routing gives %s",
				cycle, r.addr, p.port, p.want, want)
		}
	}
	if r.ctl.waiting != mask || r.buffered != buffered {
		t.Fatalf("cycle %d: router %s keeps waiting mask %05b, buffered %d; recount %05b, %d",
			cycle, r.addr, r.ctl.waiting, r.buffered, mask, buffered)
	}
	return waiting, buffered
}

// checkPorts fails unless r's port masks equal a recount from its
// buffers, its latched link wires and its crossbar: acking the inputs
// whose ack is high, full the inputs whose buffer is full, conn the
// outputs with a connection, presenting the outputs whose tx is high,
// and txHigh, with the inputs marked in the change mask flipped, the
// inputs whose tx is high. A router takes the change mask in Eval and
// wakes on the first change, so the mask holds at most one flip of
// each input's tx: the edge's since the router evaluated this step,
// the one that woke it if it sleeps.
func checkPorts(t *testing.T, cycle uint64, r *Router) {
	t.Helper()
	var tx, ack, full, conn, presenting uint8
	for i := range r.in {
		if l := r.in[i].rcv.link; l != nil {
			if l.Tx.Get() {
				tx |= 1 << i
			}
			if l.Ack.Get() {
				ack |= 1 << i
			}
		}
		if r.in[i].buf.Free() == 0 {
			full |= 1 << i
		}
		if r.out[i].src != PortNone {
			conn |= 1 << i
		}
		if l := r.out[i].snd.link; l != nil && l.Tx.Get() {
			presenting |= 1 << i
		}
	}
	changed := uint8(r.self.Changed()) & (1<<numPorts - 1)
	if got := r.txHigh ^ changed; got != tx || r.acking != ack || r.full != full || r.conn != conn || r.presenting != presenting {
		t.Fatalf("cycle %d: router %s keeps tx %05b (read %05b, changed %05b), acking %05b, full %05b, conn %05b, presenting %05b; "+
			"recount %05b, %05b, %05b, %05b, %05b",
			cycle, r.addr, got, r.txHigh, changed, r.acking, r.full, r.conn, r.presenting, tx, ack, full, conn, presenting)
	}
}

// checkTransfers fails unless each output of r has had as many flits
// accepted downstream as its FlitsOut counts, plus one while the
// acceptance's ack is latched high: the sender counts an acceptance in
// the Eval that sees the ack, the cycle after the receiver raised it.
// acks counts, per output, the checks that found its ack high, one per
// acceptance (a receiver holds ack for one cycle, and the check runs
// after every cycle).
func checkTransfers(t *testing.T, cycle uint64, r *Router, acks *[numPorts]uint64) {
	t.Helper()
	for p := range r.out {
		l := r.out[p].snd.link
		if l == nil {
			continue
		}
		var high uint64
		if l.Ack.Get() {
			high = 1
		}
		acks[p] += high
		if acks[p] != r.stats.FlitsOut[p]+high {
			t.Fatalf("cycle %d: router %s output %s: %d flits accepted downstream, %d counted out",
				cycle, r.addr, Port(p), acks[p], r.stats.FlitsOut[p])
		}
	}
}

// lockstepSeen counts the states a lockstep run checked: a waiting
// header, an idle router holding flits, a router asleep past a blocked
// retry and one waking to apply its retries.
type lockstepSeen struct{ waited, sleptHolding, sleptRetries, caughtUp int }

// routerLockstep runs cfg's mesh under the default kernel and a dense
// twin in lockstep on the same sends: for sendCycles cycles every
// endpoint with fewer than 4 flits queued sends a packet of 1 to 16
// words to a destination drawn from seed, then the mesh drains, and
// must deliver a packet every 10,000 cycles until it is quiescent. After
// every step, in both, each router's waiting mask, stored outputs and
// buffered count equal a recount over its input ports, its port masks
// equal a recount from its buffers, link wires and crossbar, each output
// has counted every flit its link's receiver accepted, and every
// router that evaluated in the step reports the Idle answer of the
// ten-port reference walk (a sleeping router is skipped for Idle: the
// kernel does not consult it, and a wake may be pending). Every
// router's Stats, which count the blocked attempts a router sleeping
// without a timer has made, equal its dense twin's after every step,
// and a router that evaluated has its twin's control state, so the
// attempts its Eval applied on waking left the round-robin scan where
// the stepped control left it. Dense never applies an attempt late.
func routerLockstep(t *testing.T, cfg Config, seed uint64, sendCycles int) lockstepSeen {
	t.Helper()
	net, dnet := buildOn(t, cfg, ""), buildOn(t, cfg, "dense")
	clk, dclk := net.Clock(), dnet.Clock()
	var seen lockstepSeen
	slept := make([]bool, len(net.routers)) // pending attempts at the last check
	acks, dacks := make([][numPorts]uint64, len(net.routers)), make([][numPorts]uint64, len(net.routers))
	check := func() {
		cycle := clk.Cycle()
		if dclk.Cycle() != cycle {
			t.Fatalf("lockstep lost: cycle %d, dense at %d", cycle, dclk.Cycle())
		}
		for i := range net.routers {
			r, d := &net.routers[i], &dnet.routers[i]
			waiting, buffered := checkCounters(t, cycle, r)
			checkCounters(t, cycle, d)
			checkPorts(t, cycle, r)
			checkPorts(t, cycle, d)
			checkTransfers(t, cycle, r, &acks[i])
			checkTransfers(t, cycle, d, &dacks[i])
			if got, want := d.Idle(), refIdle(d); got != want {
				t.Fatalf("cycle %d: dense router %s Idle %v, reference %v", cycle, d.addr, got, want)
			}
			s, ds := r.Stats(), d.Stats()
			if s != ds {
				t.Fatalf("cycle %d: router %s stats %+v, dense %+v", cycle, r.addr, s, ds)
			}
			if ds != d.stats {
				t.Fatalf("cycle %d: dense router %s has pending attempts", cycle, d.addr)
			}
			pending := s.BlockedAttempts != r.stats.BlockedAttempts
			if pending {
				seen.sleptRetries++
			}
			if r.statsAt == cycle {
				if got, want := r.Idle(), refIdle(r); got != want {
					t.Fatalf("cycle %d: router %s Idle %v, reference %v", cycle, r.addr, got, want)
				}
				if r.ctl != d.ctl {
					t.Fatalf("cycle %d: router %s control %+v, dense %+v", cycle, r.addr, r.ctl, d.ctl)
				}
				if slept[i] {
					seen.caughtUp++
				}
				if waiting > 0 {
					seen.waited++
				}
				if r.Idle() && buffered > 0 {
					seen.sleptHolding++
				}
			}
			slept[i] = pending
		}
	}
	step := func() {
		clk.Run(1) // one cycle: a warp stops at the window's end
		dclk.Step()
		check()
	}
	rnd := sim.NewRand(seed)
	var sent uint64
	for n := 0; n < sendCycles; n++ {
		for x := 0; x < cfg.Width; x++ {
			for y := 0; y < cfg.Height; y++ {
				ep, dep := net.Endpoint(Addr{x, y}), dnet.Endpoint(Addr{x, y})
				if ep.QueuedFlits() != dep.QueuedFlits() {
					t.Fatalf("cycle %d: endpoint %s queues %d flits, dense %d",
						clk.Cycle(), ep.addr, ep.QueuedFlits(), dep.QueuedFlits())
				}
				if ep.QueuedFlits() >= 4 {
					continue
				}
				dst := Addr{rnd.Intn(cfg.Width), rnd.Intn(cfg.Height)}
				payload := make([]uint16, 1+rnd.Intn(16))
				if _, err := ep.Send(dst, payload); err != nil {
					t.Fatal(err)
				}
				if _, err := dep.Send(dst, payload); err != nil {
					t.Fatal(err)
				}
				sent++
			}
		}
		step()
	}
	// The drain must deliver a packet every drainStall cycles until both
	// meshes are quiescent, so a livelock fails in seconds and says
	// where flits are held.
	const drainStall = 10_000
	delivered, at := uint64(0), clk.Cycle()
	for !clk.Quiescent() || !dclk.Quiescent() {
		step()
		if net.Delivered() > sent || dnet.Delivered() > sent {
			break
		}
		if d := net.Delivered() + dnet.Delivered(); d != delivered {
			delivered, at = d, clk.Cycle()
		} else if clk.Cycle()-at >= drainStall {
			t.Fatalf("cycle %d: no packet delivered for %d cycles; %d and %d (dense) of %d undelivered; %s",
				clk.Cycle(), drainStall, sent-net.Delivered(), sent-dnet.Delivered(), sent, holding(net, dnet))
		}
	}
	if net.Delivered() != sent || dnet.Delivered() != sent {
		t.Fatalf("cycle %d: delivered %d and %d (dense) of %d packets",
			clk.Cycle(), net.Delivered(), dnet.Delivered(), sent)
	}
	return seen
}

// holding names the first router of net, then of its dense twin dnet,
// that holds buffered flits.
func holding(net, dnet *Network) string {
	for _, n := range []*Network{net, dnet} {
		for i := range n.routers {
			r := &n.routers[i]
			var flits int
			for j := range r.in {
				flits += r.in[j].buf.Len()
			}
			if flits > 0 {
				twin := ""
				if n == dnet {
					twin = "dense "
				}
				return fmt.Sprintf("%srouter %s holds %d flits", twin, r.addr, flits)
			}
		}
	}
	return "no router holds a flit"
}

// routerRows are TestRouterCounters' meshes, all 6x6 and saturated by
// the sends of seed 7: XY routing at buffer depths 1, 2 and 4, and YX
// and west-first routing at the default depth of 2.
var routerRows = []struct {
	name    string
	depth   int
	routing int // index into lockstepRoutings
}{
	{"buf1", 1, 0},
	{"buf2", 2, 0},
	{"buf4", 4, 0},
	{"yx", 2, 1},
	{"westfirst", 2, 2},
}

// lockstepRoutings are the deadlock-free routing functions the
// lockstep runs draw from.
var lockstepRoutings = []RoutingFunc{RouteXY, RouteYX, RouteWestFirst}

// TestRouterCounters runs routerLockstep on each of routerRows for
// 3,000 cycles of sends, and requires each run to have seen a waiting
// header, an idle router holding flits, a router asleep past a blocked
// retry and one waking to apply its retries.
func TestRouterCounters(t *testing.T) {
	for _, row := range routerRows {
		t.Run(row.name, func(t *testing.T) {
			cfg := Defaults(6, 6)
			cfg.BufDepth, cfg.Routing = row.depth, lockstepRoutings[row.routing]
			seen := routerLockstep(t, cfg, 7, 3000)
			if seen.waited == 0 || seen.sleptHolding == 0 || seen.sleptRetries == 0 || seen.caughtUp == 0 {
				t.Fatalf("vacuous: %d checks saw a waiting header, %d an idle router holding flits, "+
					"%d a router asleep past a blocked retry, %d one waking to apply its retries",
					seen.waited, seen.sleptHolding, seen.sleptRetries, seen.caughtUp)
			}
		})
	}
}

// FuzzRouterCounters runs routerLockstep over fuzzed meshes: side 2 to
// 6, buffer depth 1 to 4, one of lockstepRoutings and the send seed,
// for 1,000 cycles of sends. routerRows are its seed corpus.
func FuzzRouterCounters(f *testing.F) {
	for _, row := range routerRows {
		f.Add(uint8(6), uint8(row.depth), uint8(row.routing), uint64(7))
	}
	f.Fuzz(func(t *testing.T, side, depth, routing uint8, seed uint64) {
		n := 2 + int(side-2)%5
		cfg := Defaults(n, n)
		cfg.BufDepth = 1 + int(depth-1)%4
		cfg.Routing = lockstepRoutings[int(routing)%len(lockstepRoutings)]
		routerLockstep(t, cfg, seed, 1000)
	})
}

// TestMisrouteStuck: a routing function that sends a header towards a
// port with no link (West at x = 0) leaves the header at the head of
// its buffer, the detectable stuck state route drops a misroute into.
// Under every kernel nothing panics, the crossbar never connects the
// header, its router keeps retrying it, one blocked attempt every
// routeDelay+1 cycles, while it still routes the other packets through
// it, and every router's stats are equal across kernels. The mesh
// never reports quiescence: a misrouted header keeps its routing-delay
// timer, unlike a header blocked by a busy output, so a run waiting
// for the drain times out instead of falling asleep with it inside.
func TestMisrouteStuck(t *testing.T) {
	here, lost := Addr{0, 1}, Addr{2, 2}
	cfg := Defaults(3, 3)
	cfg.Routing = func(at, dst Addr, in Port) Port {
		if at.X == 0 && dst == lost {
			return West
		}
		return RouteXY(at, dst, in)
	}
	period := uint64(cfg.internalRouteDelay() + 1)
	var ref []RouterStats
	for _, k := range []sim.Kernel{"dense", "", "nowarp"} {
		t.Run(fmt.Sprintf("kernel=%q", k), func(t *testing.T) {
			net := buildOn(t, cfg, k)
			clk := net.Clock()
			r := net.Router(here)
			clk.Probe(func(cycle uint64) {
				if p := &r.in[Local]; p.route != PortNone {
					t.Fatalf("cycle %d: the misrouted header is connected to %s", cycle, p.route)
				}
				for o := range r.out {
					if r.out[o].src == Local {
						t.Fatalf("cycle %d: output %s is connected to the misrouted header", cycle, Port(o))
					}
				}
			})
			// The misrouted packet, then packets through its router from
			// each neighbour, to its endpoint and to its other side.
			sends := [][2]Addr{{here, lost}, {{1, 1}, here}, {{0, 0}, {0, 2}}, {{0, 2}, {0, 0}}, {{1, 0}, {0, 2}}}
			for _, s := range sends {
				if _, err := net.Endpoint(s[0]).Send(s[1], make([]uint16, 8)); err != nil {
					t.Fatal(err)
				}
			}
			if err := clk.RunUntilQuiescent(5000); !errors.Is(err, sim.ErrTimeout) {
				t.Fatalf("RunUntilQuiescent = %v, want ErrTimeout", err)
			}
			if got, want := net.Delivered(), uint64(len(sends)-1); got != want {
				t.Fatalf("delivered %d packets, want %d", got, want)
			}
			if r.ctl.waiting != 1<<Local {
				t.Fatalf("waiting mask %05b, want only the Local port", r.ctl.waiting)
			}
			// Nothing else waits now, so every attempt is the misrouted
			// header's, one per period.
			var grew []uint64
			prev := r.Stats().BlockedAttempts
			for end := clk.Cycle() + 4*period; clk.Cycle() < end; {
				clk.Run(1)
				b := r.Stats().BlockedAttempts
				if b != prev && b != prev+1 {
					t.Fatalf("cycle %d: blocked attempts jumped from %d to %d", clk.Cycle(), prev, b)
				}
				if b != prev {
					grew = append(grew, clk.Cycle())
				}
				prev = b
			}
			spaced := len(grew) == 4
			for i := 1; spaced && i < len(grew); i++ {
				spaced = grew[i]-grew[i-1] == period
			}
			if !spaced {
				t.Fatalf("blocked attempts grew at cycles %v, want 4 of them %d apart", grew, period)
			}
			var stats []RouterStats
			for i := range net.routers {
				stats = append(stats, net.routers[i].Stats())
			}
			if ref == nil {
				ref = stats
			}
			for i := range stats {
				if stats[i] != ref[i] {
					t.Errorf("router %s stats %+v, dense %+v", net.routers[i].addr, stats[i], ref[i])
				}
			}
		})
	}
}
