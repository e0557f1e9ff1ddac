package experiments

import (
	"fmt"
	"io"

	"repro/internal/noc"
	"repro/internal/remap"
	"repro/internal/sim"
)

// A5DynamicRemap demonstrates the paper's partial/dynamic
// reconfiguration direction (§5): measure traffic, re-place the IPs to
// shorten hot paths, and validate the gain by re-simulating.
func A5DynamicRemap(w io.Writer, k sim.Kernel) error {
	badPairs := [][2]noc.Addr{
		{{X: 0, Y: 0}, {X: 3, Y: 3}},
		{{X: 3, Y: 0}, {X: 0, Y: 3}},
		{{X: 1, Y: 0}, {X: 2, Y: 3}},
		{{X: 0, Y: 1}, {X: 3, Y: 2}},
	}
	measure := func(pairs [][2]noc.Addr) (noc.LatencyStats, []*noc.PacketMeta, error) {
		net, err := noc.New(noc.Defaults(4, 4), k)
		if err != nil {
			return noc.LatencyStats{}, nil, err
		}
		eps := map[noc.Addr]*noc.Endpoint{}
		for _, pr := range pairs {
			for _, a := range pr {
				if eps[a] == nil {
					ep, err := net.NewEndpoint(a)
					if err != nil {
						return noc.LatencyStats{}, nil, err
					}
					eps[a] = ep
				}
			}
		}
		const packets = 30
		for i := 0; i < packets; i++ {
			for _, pr := range pairs {
				if _, err := eps[pr[0]].Send(pr[1], make([]uint16, 8)); err != nil {
					return noc.LatencyStats{}, nil, err
				}
				if _, err := eps[pr[1]].Send(pr[0], make([]uint16, 8)); err != nil {
					return noc.LatencyStats{}, nil, err
				}
			}
		}
		want := uint64(packets * len(pairs) * 2)
		if err := net.Clock().RunUntil(func() bool { return net.Delivered() == want }, 10_000_000); err != nil {
			return noc.LatencyStats{}, nil, err
		}
		return noc.Latencies(net.Completed()), net.Completed(), nil
	}

	before, metas, err := measure(badPairs)
	if err != nil {
		return err
	}
	prob := &remap.Problem{Width: 4, Height: 4, Flows: remap.MatrixFromMetas(metas)}
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
		return err
	}
	var newPairs [][2]noc.Addr
	for _, pr := range badPairs {
		newPairs = append(newPairs, [2]noc.Addr{
			res.Placement[pr[0].String()], res.Placement[pr[1].String()],
		})
	}
	after, _, err := measure(newPairs)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Future work (§5): \"IP cores position be modified in execution at run-time,")
	fmt.Fprintln(w, "favoring the IPs communication with improved throughput\". Four chatty IP pairs")
	fmt.Fprintln(w, "placed maximally far apart, then re-placed from the measured traffic matrix:")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "| placement | mean latency | p95 |\n|---|---|---|\n")
	fmt.Fprintf(w, "| original (adversarial) | %.1f | %d |\n", before.MeanCycles, before.P95Cycles)
	fmt.Fprintf(w, "| remapped (annealed, predicted -%0.f%% comm. cost) | %.1f | %d |\n",
		100*res.Improvement, after.MeanCycles, after.P95Cycles)
	if after.MeanCycles >= before.MeanCycles {
		return fmt.Errorf("remap regressed latency")
	}
	return nil
}
