package traffic

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
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
// match dense on every packet's ID, inject and eject cycles, every
// router's statistics and the Result: every kernel evaluates awake
// components in registration order, so packets are numbered alike.
//
// Dense is no oracle for the router code all three kernels share, so
// each row also pins a 64-bit FNV-1a hash of its observable behaviour,
// recorded under dense before the router's eval and commit were
// rewritten to touch only changed ports: every completed packet's ID,
// source, destination and creation, inject and eject cycles in
// Completed order, then every router's RouterStats. Every kernel must
// reproduce it. The default run must also have slept through stalls:
// at some cycle of its measurement window fewer components are active
// than routers hold flits.
func TestStallSleepCrossKernel(t *testing.T) {
	type packet struct {
		src, dst               noc.Addr
		created, inject, eject uint64
	}
	type obs struct {
		res     Result
		stats   []noc.RouterStats
		packets map[uint64]packet // by ID
		hash    uint64
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
		h := fnv.New64a()
		var buf []byte
		put := func(vs ...uint64) {
			buf = buf[:0]
			for _, v := range vs {
				buf = binary.LittleEndian.AppendUint64(buf, v)
			}
			h.Write(buf)
		}
		o.packets = make(map[uint64]packet)
		for _, m := range net.Completed() {
			o.packets[m.ID] = packet{m.Src, m.Dst, m.CreatedCycle, m.InjectCycle, m.EjectCycle}
			put(m.ID, uint64(m.Src.X), uint64(m.Src.Y), uint64(m.Dst.X), uint64(m.Dst.Y),
				m.CreatedCycle, m.InjectCycle, m.EjectCycle)
		}
		for _, s := range o.stats {
			put(s.FlitsOut[:]...)
			// PacketsRouted fills two slots: the pins were recorded
			// with a grant counter, always equal to it, in the second.
			put(s.PacketsRouted, s.PacketsRouted, s.BlockedAttempts, s.WaitCycles, s.BufferedFlitCycles)
		}
		o.hash = h.Sum64()
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
		hash  uint64
	}
	pinned := map[string]uint64{
		"buf1-xy":        0x83f8a1340b668061,
		"buf1-yx":        0x9ba9c74b49e9a368,
		"buf1-westfirst": 0x46aee59ccb836d22,
		"buf2-xy":        0xbd60d021cd7cea7c,
		"buf2-yx":        0x4adbc9eed62e9704,
		"buf2-westfirst": 0x78c2697b2381b2c5,
		"buf4-xy":        0xcc8f792a2ac3d4c7,
		"buf4-yx":        0xab603d1a621090e2,
		"buf4-westfirst": 0xf5e6f01938520b9b,
		"multicast-path": 0x208b064141f2aa2e,
	}
	var rows []row
	for _, depth := range []int{1, 2, 4} {
		for _, r := range []struct {
			name string
			fn   noc.RoutingFunc
		}{{"xy", noc.RouteXY}, {"yx", noc.RouteYX}, {"westfirst", noc.RouteWestFirst}} {
			ncfg := noc.Defaults(6, 6)
			ncfg.BufDepth, ncfg.Routing = depth, r.fn
			label := fmt.Sprintf("buf%d-%s", depth, r.name)
			rows = append(rows, row{label, ncfg, base, pinned[label]})
		}
	}
	mc := base
	mc.Spec = PatternSpec{Name: "multicast", Group: []noc.Addr{{X: 0, Y: 5}, {X: 2, Y: 1}, {X: 4, Y: 4}, {X: 5, Y: 0}}}
	mc.QueueCap = 8
	rows = append(rows, row{"multicast-path", noc.Defaults(6, 6), mc, pinned["multicast-path"]})

	for _, rw := range rows {
		rw := rw
		t.Run(rw.label, func(t *testing.T) {
			dcfg := rw.tcfg
			dcfg.Kernel = "dense"
			ref := run(t, rw.ncfg, dcfg)
			if len(ref.packets) == 0 || ref.res.MeasuredPackets == 0 {
				t.Fatal("dense run delivered no measured packets; the differential is vacuous")
			}
			if ref.hash != rw.hash {
				t.Errorf("dense: behaviour hash %#016x, pinned %#016x", ref.hash, rw.hash)
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
				for id, want := range ref.packets {
					if have := got.packets[id]; have != want {
						t.Fatalf("kernel %q: packet %d is %+v, dense %+v", k, id, have, want)
					}
				}
				if got.hash != rw.hash {
					t.Errorf("kernel %q: behaviour hash %#016x, pinned %#016x", k, got.hash, rw.hash)
				}
				if k == "" && !got.stalled {
					t.Error("no cycle had fewer active components than routers holding flits; no stall slept")
				}
			}
		})
	}
}
