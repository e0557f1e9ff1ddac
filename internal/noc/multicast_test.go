package noc

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// mcastNet builds a fully-endpointed mesh on a clock scheduled by
// kernel, with the given multicast mode.
func mcastNet(t testing.TB, w, h int, kernel sim.Kernel, pathMode bool) (*sim.Clock, *Network) {
	t.Helper()
	clk := kernelClock(t, kernel)
	net, err := New(clk, Defaults(w, h))
	if err != nil {
		t.Fatal(err)
	}
	net.SetPathMulticast(pathMode)
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			if _, err := net.NewEndpoint(Addr{X: x, Y: y}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return clk, net
}

// mcastDeliver sends one multicast group from src, runs to quiescence
// and returns the group plus the payload each destination received.
func mcastDeliver(t testing.TB, clk *sim.Clock, net *Network, src Addr, dsts []Addr, payload []uint16) (*MulticastMeta, map[Addr][]uint16) {
	t.Helper()
	g, err := net.Endpoint(src).SendMulti(dsts, payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := clk.RunUntilQuiescent(5_000_000); err != nil {
		t.Fatal(err)
	}
	got := make(map[Addr][]uint16)
	for _, d := range g.Dsts {
		ep := net.Endpoint(d)
		for {
			p, ok := ep.Recv()
			if !ok {
				break
			}
			if p.Meta != nil && p.Meta.MC == g {
				// The payload is valid until the next Recv: keep a copy.
				got[d] = append([]uint16(nil), p.Payload...)
			}
		}
	}
	return g, got
}

// TestMulticastPathMatchesUnicastOracle: on 8x8 and 16x16 idle meshes,
// path-based multicast must deliver exactly the per-destination
// payloads the unicast-replication oracle delivers, with every
// destination's delivery cycle no earlier than the oracle's (the path
// serializes visits; replication fans out directly), monotone along the
// visit path.
func TestMulticastPathMatchesUnicastOracle(t *testing.T) {
	for _, mesh := range []struct{ w, h int }{{8, 8}, {16, 16}} {
		src := Addr{X: mesh.w / 2, Y: mesh.h / 2}
		dsts := []Addr{
			{X: 0, Y: 0}, {X: mesh.w - 1, Y: 0}, {X: 0, Y: mesh.h - 1},
			{X: mesh.w - 1, Y: mesh.h - 1}, {X: 1, Y: mesh.h / 2}, {X: mesh.w - 2, Y: 1},
		}
		payload := []uint16{7, 11, 13, 17, 19}
		clkP, netP := mcastNet(t, mesh.w, mesh.h, "", true)
		path, gotPath := mcastDeliver(t, clkP, netP, src, dsts, payload)
		clkU, netU := mcastNet(t, mesh.w, mesh.h, "", false)
		oracle, gotUni := mcastDeliver(t, clkU, netU, src, dsts, payload)

		if !path.Path || oracle.Path {
			t.Fatalf("%dx%d: mode flags wrong: path=%v oracle=%v", mesh.w, mesh.h, path.Path, oracle.Path)
		}
		if len(path.Dsts) != len(dsts) || len(oracle.Dsts) != len(dsts) {
			t.Fatalf("%dx%d: destinations lost: path %d oracle %d of %d",
				mesh.w, mesh.h, len(path.Dsts), len(oracle.Dsts), len(dsts))
		}
		if !path.DeliveredAll() || !oracle.DeliveredAll() {
			t.Fatalf("%dx%d: undelivered legs: path=%v oracle=%v",
				mesh.w, mesh.h, path.DeliveredAll(), oracle.DeliveredAll())
		}
		for i, d := range path.Dsts {
			if oracle.Dsts[i] != d {
				t.Fatalf("%dx%d: visit order diverged at %d: path %s oracle %s",
					mesh.w, mesh.h, i, d, oracle.Dsts[i])
			}
			p, u := gotPath[d], gotUni[d]
			if len(p) != len(payload) || len(u) != len(payload) {
				t.Fatalf("%dx%d dst %s: payload lengths path=%d oracle=%d want %d",
					mesh.w, mesh.h, d, len(p), len(u), len(payload))
			}
			for k := range payload {
				if p[k] != u[k] || p[k] != payload[k] {
					t.Errorf("%dx%d dst %s flit %d: path=%d oracle=%d want %d",
						mesh.w, mesh.h, d, k, p[k], u[k], payload[k])
				}
			}
			pc, uc := path.Legs[i].EjectCycle, oracle.Legs[i].EjectCycle
			if pc < uc {
				t.Errorf("%dx%d dst %s: path delivered at %d before oracle's %d",
					mesh.w, mesh.h, d, pc, uc)
			}
			if i > 0 && pc <= path.Legs[i-1].EjectCycle {
				t.Errorf("%dx%d: path delivery not monotone: stop %d at %d, stop %d at %d",
					mesh.w, mesh.h, i-1, path.Legs[i-1].EjectCycle, i, pc)
			}
		}
		for _, net := range []*Network{netP, netU} {
			s := net.MulticastStats()
			if s.Groups != 1 || s.Copies != uint64(len(dsts)) || s.Dropped != 0 {
				t.Errorf("%dx%d: multicast stats %+v, want 1 group, %d copies, 0 dropped",
					mesh.w, mesh.h, s, len(dsts))
			}
		}
	}
}

// TestMulticastCrossKernelIdentical: one multicast group spread across
// the mesh must deliver each copy at exactly the same cycle — in path
// mode and in the unicast oracle mode alike — under the default kernel,
// with time warp off and under the dense kernel. The payload hops
// through intermediate endpoints that forward it, so this covers the
// forwarding path's evaluation order under every scheduler.
func TestMulticastCrossKernelIdentical(t *testing.T) {
	const w, h = 8, 4
	src := Addr{X: 0, Y: 0}
	dsts := []Addr{{X: 1, Y: 3}, {X: 3, Y: 0}, {X: 5, Y: 2}, {X: 7, Y: 1}}
	payload := []uint16{3, 1, 4, 1, 5, 9, 2, 6}

	type obs struct {
		ejects []uint64
		stats  MulticastStats
	}
	run := func(kernel sim.Kernel, pathMode bool) obs {
		clk, net := mcastNet(t, w, h, kernel, pathMode)
		g, got := mcastDeliver(t, clk, net, src, dsts, payload)
		if !g.DeliveredAll() {
			t.Fatalf("kernel %q path=%v: undelivered legs", kernel, pathMode)
		}
		for _, d := range g.Dsts {
			for k, v := range got[d] {
				if v != payload[k] {
					t.Fatalf("kernel %q path=%v dst %s: corrupt payload flit %d = %d",
						kernel, pathMode, d, k, v)
				}
			}
		}
		o := obs{stats: net.MulticastStats()}
		for _, m := range g.Legs {
			o.ejects = append(o.ejects, m.EjectCycle)
		}
		return o
	}

	for _, pathMode := range []bool{true, false} {
		ref := run("", pathMode)
		for _, k := range []sim.Kernel{"dense", "nowarp"} {
			got := run(k, pathMode)
			name := fmt.Sprintf("path=%v kernel=%s", pathMode, k)
			for i := range ref.ejects {
				if got.ejects[i] != ref.ejects[i] {
					t.Errorf("%s: leg %d delivered at %d, reference %d",
						name, i, got.ejects[i], ref.ejects[i])
				}
			}
			if got.stats != ref.stats {
				t.Errorf("%s: multicast stats %+v, reference %+v", name, got.stats, ref.stats)
			}
		}
	}
}

// TestMulticastDropsEndpointlessDestinations: a destination router with
// no endpoint cannot absorb a copy; SendMulti must skip it, count it
// dropped, and still deliver everywhere else — in both modes.
func TestMulticastDropsEndpointlessDestinations(t *testing.T) {
	for _, pathMode := range []bool{true, false} {
		cfg := Defaults(4, 4)
		clk := sim.NewClock()
		net, err := New(clk, cfg)
		if err != nil {
			t.Fatal(err)
		}
		net.SetPathMulticast(pathMode)
		// Endpoints everywhere except (2,2).
		for x := 0; x < 4; x++ {
			for y := 0; y < 4; y++ {
				if (Addr{X: x, Y: y}) == (Addr{X: 2, Y: 2}) {
					continue
				}
				if _, err := net.NewEndpoint(Addr{X: x, Y: y}); err != nil {
					t.Fatal(err)
				}
			}
		}
		g, err := net.Endpoint(Addr{X: 0, Y: 0}).SendMulti(
			[]Addr{{X: 3, Y: 3}, {X: 2, Y: 2}, {X: 1, Y: 1}}, []uint16{42})
		if err != nil {
			t.Fatal(err)
		}
		if err := clk.RunUntilQuiescent(1_000_000); err != nil {
			t.Fatal(err)
		}
		if g.Dropped != 1 || len(g.Dsts) != 2 {
			t.Fatalf("path=%v: group %+v, want 1 dropped and 2 deliverable", pathMode, g)
		}
		if !g.DeliveredAll() {
			t.Fatalf("path=%v: deliverable legs not all delivered", pathMode)
		}
		s := net.MulticastStats()
		if s.Groups != 1 || s.Copies != 2 || s.Dropped != 1 {
			t.Fatalf("path=%v: stats %+v, want {1 2 1}", pathMode, s)
		}
	}
}

// TestSendMultiValidation: malformed destination sets must be rejected
// as errors before anything is staged.
func TestSendMultiValidation(t *testing.T) {
	clk, net := mcastNet(t, 4, 4, "", true)
	_ = clk
	ep := net.Endpoint(Addr{X: 0, Y: 0})
	if _, err := ep.SendMulti(nil, []uint16{1}); err == nil {
		t.Error("empty destination set accepted")
	}
	if _, err := ep.SendMulti([]Addr{{X: 9, Y: 0}}, []uint16{1}); err == nil {
		t.Error("off-mesh destination accepted")
	}
	if _, err := ep.SendMulti([]Addr{{X: 1, Y: 1}, {X: 1, Y: 1}}, []uint16{1}); err == nil {
		t.Error("duplicate destination accepted")
	}
	if _, err := ep.SendMulti([]Addr{{X: 1, Y: 1}}, make([]uint16, MaxPayload(8)+1)); err == nil {
		t.Error("oversized payload accepted")
	}
	if s := net.MulticastStats(); s.Groups != 0 {
		t.Errorf("rejected sends counted: %+v", s)
	}
}

// TestMulticastPathOrderCanonical: the visit path must be a
// deterministic function of the destination set, independent of the
// order passed to SendMulti.
func TestMulticastPathOrderCanonical(t *testing.T) {
	a := MulticastPath([]Addr{{X: 3, Y: 1}, {X: 0, Y: 2}, {X: 1, Y: 0}, {X: 1, Y: 3}})
	b := MulticastPath([]Addr{{X: 1, Y: 3}, {X: 1, Y: 0}, {X: 3, Y: 1}, {X: 0, Y: 2}})
	want := []Addr{{X: 0, Y: 2}, {X: 1, Y: 3}, {X: 1, Y: 0}, {X: 3, Y: 1}}
	for i := range want {
		if a[i] != want[i] || b[i] != want[i] {
			t.Fatalf("path not canonical: %v / %v, want %v", a, b, want)
		}
	}
}
