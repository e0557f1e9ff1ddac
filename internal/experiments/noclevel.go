package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/traffic"
)

// E1LatencyFormula compares measured zero-load latency against the
// paper's model latency = (sum Ri + P) x 2 with Ri = 7.
func E1LatencyFormula(w io.Writer) error {
	cfg := noc.Defaults(8, 8)
	fmt.Fprintln(w, "Paper: minimal latency = (sum Ri + P) x 2, Ri >= 7 -> 14*hops + 2*P cycles.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| hops | payload flits | formula | measured | diff |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	worst := int64(0)
	for _, hops := range []int{1, 2, 4, 8} {
		for _, pay := range []int{4, 16, 64} {
			src := noc.Addr{X: 0, Y: 0}
			dst := noc.Addr{X: hops - 1, Y: 0}
			got, err := traffic.ProbeLatency(cfg, src, dst, pay, "")
			if err != nil {
				return err
			}
			want := noc.FormulaLatency(cfg, noc.HopCount(src, dst), pay+2)
			diff := int64(got) - int64(want)
			if diff < 0 && -diff > worst || diff > worst {
				worst = diff
				if worst < 0 {
					worst = -worst
				}
			}
			fmt.Fprintf(w, "| %d | %d | %d | %d | %+d |\n",
				noc.HopCount(src, dst), pay, want, got, diff)
		}
	}
	fmt.Fprintf(w, "\nMax |diff| = %d cycles (constant injection/ejection offset; slope matches the formula).\n", worst)
	return nil
}

// E2PeakThroughput reproduces the 1 Gbit/s router claim.
func E2PeakThroughput(w io.Writer) error {
	cfg := noc.Defaults(3, 3)
	res, err := traffic.PeakThroughput(cfg, 40, "")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Paper: 5 ports x 8 bits / 2 cycles @ 50 MHz = **1 Gbit/s** theoretical peak per router.\n\n")
	fmt.Fprintf(w, "| quantity | value |\n|---|---|\n")
	fmt.Fprintf(w, "| theoretical peak | %.3f Gbit/s |\n", res.TheoreticalGbps)
	fmt.Fprintf(w, "| measured (5 simultaneous connections, max packets) | %.3f Gbit/s |\n", res.MeasuredGbps)
	fmt.Fprintf(w, "| efficiency | %.1f%% |\n", 100*res.Efficiency)
	fmt.Fprintf(w, "| centre-router forwarding rate | %.3f flits/cycle (peak 2.5) |\n", res.FlitsPerCycle)
	fmt.Fprintln(w, "\nThe gap to 100% is per-packet header routing time (14 cycles per connection re-establishment).")
	return nil
}

// E3BufferDepth sweeps input buffer depth under saturating uniform
// load.
func E3BufferDepth(w io.Writer) error {
	fmt.Fprintln(w, "Paper: \"Larger buffers can provide enhanced NoC performance\"; MultiNoC uses")
	fmt.Fprintln(w, "2-flit buffers to fit the FPGA. Saturation throughput on a 4x4 mesh, uniform traffic:")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| buffer depth | delivered (flits/cycle/node) | mean network latency | mean total latency |")
	fmt.Fprintln(w, "|---|---|---|---|")
	var base float64
	for _, depth := range []int{1, 2, 4, 8, 16} {
		cfg := noc.Defaults(4, 4)
		cfg.BufDepth = depth
		res, err := traffic.Run(cfg, traffic.Config{
			Rate: 0.40, PayloadFlits: 8, Seed: 11,
			Warmup: 3000, Measure: 10000, Drain: 30000,
		})
		if err != nil {
			return err
		}
		if depth == 1 {
			base = res.Delivered
		}
		fmt.Fprintf(w, "| %d | %.3f (%.2fx) | %.1f | %.1f |\n",
			depth, res.Delivered, res.Delivered/base,
			res.Latency.MeanCycles, res.Latency.MeanTotalCycles)
	}
	fmt.Fprintln(w, "\nDeeper buffers relieve wormhole head-of-line blocking: throughput doubles from depth 1 to 16.")
	return nil
}

// AblRouting compares the three routing algorithms under transpose
// traffic (which stresses dimension-ordered routing).
func AblRouting(w io.Writer) error {
	fmt.Fprintln(w, "Design choice (§2.1): deterministic XY. Alternatives under transpose traffic, 4x4, rate 0.15:")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| routing | delivered | mean latency |")
	fmt.Fprintln(w, "|---|---|---|")
	for _, tc := range []struct {
		name string
		fn   noc.RoutingFunc
	}{{"XY", noc.RouteXY}, {"YX", noc.RouteYX}, {"west-first", noc.RouteWestFirst}} {
		cfg := noc.Defaults(4, 4)
		cfg.Routing = tc.fn
		res, err := traffic.Run(cfg, traffic.Config{
			Spec: traffic.PatternSpec{Name: "transpose"}, Rate: 0.15, PayloadFlits: 8, Seed: 5,
			Warmup: 3000, Measure: 10000, Drain: 30000,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "| %s | %.3f | %.1f |\n", tc.name, res.Delivered, res.Latency.MeanCycles)
	}
	return nil
}

// AblFlitWidth shows peak bandwidth scaling with flit width.
func AblFlitWidth(w io.Writer) error {
	fmt.Fprintln(w, "Flit width trades wires for bandwidth (MultiNoC: 8 bits). Router peak at 50 MHz:")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| flit bits | theoretical peak | measured |")
	fmt.Fprintln(w, "|---|---|---|")
	for _, bits := range []int{8, 16, 32} {
		cfg := noc.Defaults(3, 3)
		cfg.FlitBits = bits
		res, err := traffic.PeakThroughput(cfg, 20, "")
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "| %d | %.2f Gbit/s | %.2f Gbit/s |\n", bits, res.TheoreticalGbps, res.MeasuredGbps)
	}
	return nil
}

// AblRouteCycles shows latency sensitivity to the per-hop routing time
// (the paper's Ri >= 7 means RouteCycles >= 14).
func AblRouteCycles(w io.Writer) error {
	fmt.Fprintln(w, "Zero-load latency across 8 hops, 16-flit payload, as the per-hop routing time varies:")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| RouteCycles (2 x Ri) | measured latency |")
	fmt.Fprintln(w, "|---|---|")
	for _, rc := range []int{6, 10, 14, 20, 28} {
		cfg := noc.Defaults(8, 1)
		cfg.RouteCycles = rc
		got, err := traffic.ProbeLatency(cfg, noc.Addr{X: 0, Y: 0}, noc.Addr{X: 7, Y: 0}, 16, "")
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "| %d | %d |\n", rc, got)
	}
	fmt.Fprintln(w, "\nLatency is linear in the routing time with slope = hop count, as the formula predicts.")
	return nil
}

// AblBaud measures host download time against the serial divisor (the
// paper's "low cost, low performance external communication" choice).
func AblBaud(w io.Writer) error {
	fmt.Fprintln(w, "Cycles to download a 64-word program over RS-232 vs divisor (cycles/bit):")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| divisor | cycles | cycles/byte |")
	fmt.Fprintln(w, "|---|---|---|")
	for _, div := range []int{8, 16, 32, 64} {
		cfg := defaultSystem()
		cfg.SerialDiv = div
		sys, err := core.New(cfg)
		if err != nil {
			return err
		}
		if err := sys.Boot(); err != nil {
			return err
		}
		words := make([]uint16, 64)
		start := sys.Clk.Cycle()
		if err := sys.Host.WriteMemory(noc.Addr{X: 0, Y: 1}, 0, words); err != nil {
			return err
		}
		elapsed := sys.Clk.Cycle() - start
		// Frame: 5 header bytes + 128 data bytes.
		fmt.Fprintf(w, "| %d | %d | %.0f |\n", div, elapsed, float64(elapsed)/133)
	}
	fmt.Fprintln(w, "\nDownload time scales linearly with the bit period: the host link, not the NoC,")
	fmt.Fprintln(w, "bounds system fill time — the paper's motivation for suggesting USB/PCI/Firewire.")
	return nil
}

func defaultSystem() core.Config { return core.Default() }
