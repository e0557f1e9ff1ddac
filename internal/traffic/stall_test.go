package traffic

import (
	"fmt"
	"testing"

	"repro/internal/noc"
	"repro/internal/sim"
)

// TestStallSleepCrossKernel: a router or endpoint stalled mid-wormhole
// (a full buffer, a presented flit waiting for its ack, a header inside
// its routing delay) sleeps until the one event that ends the stall.
// On a saturated 6x6 mesh, over buffer depths 1, 2 and 4 and the three
// routing algorithms, plus a path-multicast row whose small queue cap
// keeps the sources backed up, the default and nowarp kernels must
// match dense on every packet's inject and eject cycles, every
// router's statistics and the Result. Packets are matched by source,
// destination and creation cycle, not by ID: IDs number packets in the
// order their senders evaluate, which the active set does not fix. The
// default run must also have slept through stalls: at some cycle of
// its measurement window fewer components are active than routers hold
// flits.
func TestStallSleepCrossKernel(t *testing.T) {
	type packet struct {
		src, dst noc.Addr
		created  uint64
	}
	type obs struct {
		res     Result
		stats   []noc.RouterStats
		packets map[packet][2]uint64 // inject and eject cycles
		stalled bool
	}
	run := func(t *testing.T, ncfg noc.Config, tcfg Config) obs {
		t.Helper()
		var o obs
		var net *noc.Network
		nodes := ncfg.Width * ncfg.Height
		router := func(i int) *noc.Router {
			return net.Router(noc.Addr{X: i / ncfg.Height, Y: i % ncfg.Height})
		}
		tcfg.OnNetwork = func(n *noc.Network) {
			net = n
			if tcfg.Kernel != "" {
				return
			}
			// A router holds flits over a cycle iff its buffered-flit
			// integral grows across it.
			clk := n.Clock()
			from, to := uint64(tcfg.Warmup), uint64(tcfg.Warmup+tcfg.Measure)
			buffered := make([]uint64, nodes)
			clk.Probe(func(cycle uint64) {
				holding := 0
				for i := range buffered {
					b := router(i).Stats().BufferedFlitCycles
					if b > buffered[i] {
						holding++
					}
					buffered[i] = b
				}
				if cycle > from && cycle <= to && clk.ActiveCount() < holding {
					o.stalled = true
				}
			})
		}
		res, err := Run(ncfg, tcfg)
		if err != nil {
			t.Fatal(err)
		}
		o.res = res
		for i := 0; i < nodes; i++ {
			o.stats = append(o.stats, router(i).Stats())
		}
		o.packets = make(map[packet][2]uint64)
		for _, m := range net.Completed() {
			o.packets[packet{m.Src, m.Dst, m.CreatedCycle}] = [2]uint64{m.InjectCycle, m.EjectCycle}
		}
		return o
	}

	base := Config{
		Rate: 0.40, PayloadFlits: 16, Seed: 11,
		Warmup: 200, Measure: 800, Drain: 100000,
	}
	type row struct {
		label string
		ncfg  noc.Config
		tcfg  Config
	}
	var rows []row
	for _, depth := range []int{1, 2, 4} {
		for _, r := range []struct {
			name string
			fn   noc.RoutingFunc
		}{{"xy", noc.RouteXY}, {"yx", noc.RouteYX}, {"westfirst", noc.RouteWestFirst}} {
			ncfg := noc.Defaults(6, 6)
			ncfg.BufDepth, ncfg.Routing = depth, r.fn
			rows = append(rows, row{fmt.Sprintf("buf%d-%s", depth, r.name), ncfg, base})
		}
	}
	mc := base
	mc.Spec = PatternSpec{Name: "multicast", Group: []noc.Addr{{X: 0, Y: 5}, {X: 2, Y: 1}, {X: 4, Y: 4}, {X: 5, Y: 0}}}
	mc.QueueCap = 8
	rows = append(rows, row{"multicast-path", noc.Defaults(6, 6), mc})

	for _, rw := range rows {
		rw := rw
		t.Run(rw.label, func(t *testing.T) {
			dcfg := rw.tcfg
			dcfg.Kernel = "dense"
			ref := run(t, rw.ncfg, dcfg)
			if len(ref.packets) == 0 || ref.res.MeasuredPackets == 0 {
				t.Fatal("dense run delivered no measured packets; the differential is vacuous")
			}
			for _, k := range []sim.Kernel{"", "nowarp"} {
				kcfg := rw.tcfg
				kcfg.Kernel = k
				got := run(t, rw.ncfg, kcfg)
				if got.res != ref.res {
					t.Errorf("kernel %q: results diverged:\n  dense %+v\n  got   %+v", k, ref.res, got.res)
				}
				for i := range ref.stats {
					if got.stats[i] != ref.stats[i] {
						t.Errorf("kernel %q: router %d stats diverged:\n  dense %+v\n  got   %+v",
							k, i, ref.stats[i], got.stats[i])
					}
				}
				if len(got.packets) != len(ref.packets) {
					t.Errorf("kernel %q: %d packets delivered, dense %d", k, len(got.packets), len(ref.packets))
				}
				for p, want := range ref.packets {
					if have := got.packets[p]; have != want {
						t.Fatalf("kernel %q: packet %+v injected and ejected at %v, dense %v", k, p, have, want)
					}
				}
				if k == "" && !got.stalled {
					t.Error("no cycle had fewer active components than routers holding flits; no stall slept")
				}
			}
		})
	}
}
