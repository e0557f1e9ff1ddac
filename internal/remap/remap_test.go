package remap

import (
	"fmt"
	"testing"

	"repro/internal/noc"
)

func TestCostIsVolumeTimesHops(t *testing.T) {
	p := &Problem{
		Width: 4, Height: 1,
		IPs:   []string{"a", "b"},
		Flows: []Flow{{From: "a", To: "b", Volume: 10}},
	}
	pl := Placement{"a": {X: 0, Y: 0}, "b": {X: 3, Y: 0}}
	c, err := p.Cost(pl)
	if err != nil {
		t.Fatal(err)
	}
	if c != 40 { // 10 x HopCount(4)
		t.Errorf("cost = %v, want 40", c)
	}
	if _, err := p.Cost(Placement{"a": {X: 0, Y: 0}}); err == nil {
		t.Error("missing placement accepted")
	}
}

func TestValidation(t *testing.T) {
	bad := []*Problem{
		{Width: 0, Height: 2},
		{Width: 1, Height: 1, IPs: []string{"a", "b"}},
		{Width: 2, Height: 2, IPs: []string{"a", "a"}},
		{Width: 2, Height: 2, IPs: []string{"a"}, Pinned: map[string]noc.Addr{"x": {}}},
		{Width: 2, Height: 2, IPs: []string{"a"}, Pinned: map[string]noc.Addr{"a": {X: 5, Y: 0}}},
	}
	for i, p := range bad {
		if _, err := p.Optimize(1, 10); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestOptimizePullsChattyIPsTogether(t *testing.T) {
	// The deterministic initial placement is row-major over sorted
	// names, so naming the hot partner "zz-hot" and padding with nine
	// idle IPs strands it at (2,2) — five hops from its pinned peer.
	// The optimizer must bring it adjacent.
	ips := []string{"hot1", "zz-hot"}
	for i := 1; i <= 9; i++ {
		ips = append(ips, fmt.Sprintf("m%d", i))
	}
	p := &Problem{
		Width: 4, Height: 4,
		IPs:    ips,
		Pinned: map[string]noc.Addr{"hot1": {X: 0, Y: 0}},
		Flows:  []Flow{{From: "hot1", To: "zz-hot", Volume: 100}, {From: "zz-hot", To: "hot1", Volume: 100}},
	}
	res, err := p.Optimize(7, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Initial != 1000 {
		t.Fatalf("initial cost = %v, want the stranded 1000", res.Initial)
	}
	if res.Cost >= res.Initial {
		t.Errorf("no improvement: %v -> %v", res.Initial, res.Cost)
	}
	// Optimal: zz-hot adjacent to hot1 -> 2 hops per direction = 400.
	if res.Cost != 400 {
		t.Errorf("final cost = %v, want optimal 400", res.Cost)
	}
	if res.Placement["hot1"] != (noc.Addr{X: 0, Y: 0}) {
		t.Error("pinned IP moved")
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	p := &Problem{
		Width: 3, Height: 3,
		IPs: []string{"a", "b", "c", "d"},
		Flows: []Flow{
			{From: "a", To: "b", Volume: 5},
			{From: "b", To: "c", Volume: 3},
			{From: "c", To: "d", Volume: 9},
		},
	}
	r1, err := p.Optimize(3, 3000)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.Optimize(3, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cost != r2.Cost {
		t.Errorf("nondeterministic: %v vs %v", r1.Cost, r2.Cost)
	}
	for k, v := range r1.Placement {
		if r2.Placement[k] != v {
			t.Errorf("placement differs at %s", k)
		}
	}
}

func TestMatrixFromMetas(t *testing.T) {
	metas := []*noc.PacketMeta{
		{Src: noc.Addr{X: 0, Y: 0}, Dst: noc.Addr{X: 1, Y: 1}, Len: 10},
		{Src: noc.Addr{X: 0, Y: 0}, Dst: noc.Addr{X: 1, Y: 1}, Len: 6},
		{Src: noc.Addr{X: 1, Y: 1}, Dst: noc.Addr{X: 0, Y: 0}, Len: 4},
	}
	flows := MatrixFromMetas(metas)
	if len(flows) != 2 {
		t.Fatalf("flows = %d, want 2", len(flows))
	}
	if flows[0].Volume != 16 || flows[1].Volume != 4 {
		t.Errorf("volumes %v %v", flows[0].Volume, flows[1].Volume)
	}
}

// TestRemapImprovesRealLatency closes the loop the paper's future-work
// section imagines: measure traffic on a bad placement, optimize the
// assignment, and verify the re-placed system actually delivers lower
// latency in simulation.
func TestRemapImprovesRealLatency(t *testing.T) {
	// Workload: four IP pairs, each pair exchanging packets, placed so
	// every pair sits maximally far apart on a 4x4 mesh.
	badPairs := [][2]noc.Addr{
		{{X: 0, Y: 0}, {X: 3, Y: 3}},
		{{X: 3, Y: 0}, {X: 0, Y: 3}},
		{{X: 1, Y: 0}, {X: 2, Y: 3}},
		{{X: 0, Y: 1}, {X: 3, Y: 2}},
	}
	measure := func(pairs [][2]noc.Addr) (float64, []*noc.PacketMeta) {
		net, err := noc.New(noc.Defaults(4, 4), "")
		if err != nil {
			t.Fatal(err)
		}
		clk := net.Clock()
		eps := map[noc.Addr]*noc.Endpoint{}
		for _, pr := range pairs {
			for _, a := range pr {
				if eps[a] == nil {
					ep, err := net.NewEndpoint(a)
					if err != nil {
						t.Fatal(err)
					}
					eps[a] = ep
				}
			}
		}
		const packets = 30
		for i := 0; i < packets; i++ {
			for _, pr := range pairs {
				if _, err := eps[pr[0]].Send(pr[1], make([]uint16, 8)); err != nil {
					t.Fatal(err)
				}
				if _, err := eps[pr[1]].Send(pr[0], make([]uint16, 8)); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := uint64(packets * len(pairs) * 2)
		if err := clk.RunUntil(func() bool { return net.Delivered() == want }, 10_000_000); err != nil {
			t.Fatal(err)
		}
		stats := noc.Latencies(net.Completed())
		return stats.MeanCycles, net.Completed()
	}

	before, metas := measure(badPairs)

	// Build the remap problem from the observed traffic.
	prob := &Problem{Width: 4, Height: 4, Flows: MatrixFromMetas(metas)}
	seen := map[string]bool{}
	for _, f := range prob.Flows {
		for _, n := range []string{f.From, f.To} {
			if !seen[n] {
				seen[n] = true
				prob.IPs = append(prob.IPs, n)
			}
		}
	}
	res, err := prob.Optimize(11, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Improvement <= 0.3 {
		t.Fatalf("predicted improvement only %.0f%%", 100*res.Improvement)
	}

	// Apply the new placement: each original address maps to its new
	// router; rebuild the pair list accordingly.
	var newPairs [][2]noc.Addr
	for _, pr := range badPairs {
		newPairs = append(newPairs, [2]noc.Addr{
			res.Placement[pr[0].String()],
			res.Placement[pr[1].String()],
		})
	}
	after, _ := measure(newPairs)
	if after >= before {
		t.Errorf("remap did not help: mean latency %.1f -> %.1f", before, after)
	}
	t.Logf("mean latency %.1f -> %.1f cycles (predicted cost -%.0f%%)",
		before, after, 100*res.Improvement)
}
