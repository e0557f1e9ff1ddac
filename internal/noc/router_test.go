package noc

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// refIdle is the reference for Router.Idle: the predicate walked from
// scratch over all ten ports, reading the router's registered state
// and its link wires after the edge.
func refIdle(r *Router) bool {
	serving := r.ctl.serving >= 0
	for i := range r.in {
		p := &r.in[i]
		if p.rcv.ackHigh || !serving && p.requestActive() {
			return false
		}
		if l := p.rcv.link; l != nil && l.Tx.Get() && p.buf.Free() > 0 {
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
		if !o.snd.busy && (l.Tx.Get() || o.src != PortNone && r.in[o.src].buf.Len() > 0) {
			return false
		}
	}
	return true
}

// TestRouterCounters: on a saturated 6x6 mesh, after every step, each
// router's waiting and buffered counts equal a recount over its input
// ports, and every router that evaluated in the step reports the Idle
// answer of the ten-port reference walk. A sleeping router is skipped
// for Idle: the kernel does not consult it, and a wake may be pending.
func TestRouterCounters(t *testing.T) {
	for _, depth := range []int{1, 2} {
		for _, k := range []sim.Kernel{"", "dense"} {
			name := fmt.Sprintf("buf%d-default", depth)
			if k != "" {
				name = fmt.Sprintf("buf%d-%s", depth, k)
			}
			t.Run(name, func(t *testing.T) {
				clk, err := sim.ParseKernel(k)
				if err != nil {
					t.Fatal(err)
				}
				cfg := Defaults(6, 6)
				cfg.BufDepth = depth
				net := buildOn(t, clk, cfg)
				var waited, sleptHolding int
				clk.Probe(func(cycle uint64) {
					for i := range net.routers {
						r := &net.routers[i]
						waiting, buffered := 0, 0
						for j := range r.in {
							if r.in[j].requestActive() {
								waiting++
							}
							buffered += r.in[j].buf.Len()
						}
						if r.waiting != waiting || r.buffered != buffered {
							t.Fatalf("cycle %d: router %s counts waiting %d, buffered %d; recount %d, %d",
								cycle, r.addr, r.waiting, r.buffered, waiting, buffered)
						}
						if r.statsAt != cycle {
							continue
						}
						if got, want := r.Idle(), refIdle(r); got != want {
							t.Fatalf("cycle %d: router %s Idle %v, reference %v", cycle, r.addr, got, want)
						}
						if waiting > 0 {
							waited++
						}
						if r.Idle() && buffered > 0 {
							sleptHolding++
						}
					}
				})
				rnd := sim.NewRand(7)
				var sent uint64
				for step := 0; step < 3000; step++ {
					for x := 0; x < cfg.Width; x++ {
						for y := 0; y < cfg.Height; y++ {
							ep := net.Endpoint(Addr{x, y})
							if ep.QueuedFlits() >= 4 {
								continue
							}
							dst := Addr{rnd.Intn(cfg.Width), rnd.Intn(cfg.Height)}
							if _, err := ep.Send(dst, make([]uint16, 1+rnd.Intn(16))); err != nil {
								t.Fatal(err)
							}
							sent++
						}
					}
					clk.Step()
				}
				if err := clk.RunUntilQuiescent(1_000_000); err != nil {
					t.Fatal(err)
				}
				if net.Delivered() != sent {
					t.Fatalf("delivered %d of %d packets", net.Delivered(), sent)
				}
				if waited == 0 || sleptHolding == 0 {
					t.Fatalf("vacuous: %d checks saw a waiting header, %d an idle router holding flits",
						waited, sleptHolding)
				}
			})
		}
	}
}
