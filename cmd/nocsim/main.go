// Command nocsim runs synthetic traffic through a standalone Hermes
// NoC and prints latency/throughput figures — the workhorse behind the
// E1/E2/E3 experiments.
//
// Usage:
//
//	nocsim [-w 4 -h 4] [-pattern uniform] [-payload 8] [-depth 2] -rate 0.1
//	nocsim -sweep "0.02,0.05,0.1,0.2,0.3"      # rate sweep table
//	nocsim -peak                               # 5-connection router peak
//	nocsim -pattern hotspot -hotspots "2,3,0.3;0,0,0.1"
//	nocsim -pattern bursty -burstlen 8 -burstpeak 0.5
//	nocsim -pattern multicast -mcgroup "0,0;3,1;3,3" -rate 0.02
//	nocsim -record run.trace -rate 0.05        # then: nocsim -replay run.trace
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/vcd"
)

func main() {
	w := flag.Int("w", 4, "mesh width")
	h := flag.Int("h", 4, "mesh height")
	rate := flag.Float64("rate", 0.1, "offered load, flits/cycle/node")
	pattern := flag.String("pattern", "uniform", "uniform|transpose|bitcomp|bitrev|hotspot|bursty|multicast")
	hotspots := flag.String("hotspots", "", `weighted hotspot set as "x,y,w;x,y,w" (default: mesh centre at 0.2)`)
	burstLen := flag.Float64("burstlen", 0, "mean packets per burst (0 = library default)")
	burstPeak := flag.Float64("burstpeak", 0, "in-burst injection rate, flits/cycle (0 = library default)")
	mcGroup := flag.String("mcgroup", "", `multicast destination set as "x,y;x,y"`)
	mcUnicast := flag.Bool("mcunicast", false, "deliver multicast by unicast replication instead of path forwarding")
	record := flag.String("record", "", "write the injection log to this NDJSON trace file")
	replay := flag.String("replay", "", "replay an NDJSON trace file instead of a synthetic pattern")
	payload := flag.Int("payload", 8, "payload flits per packet")
	depth := flag.Int("depth", 2, "input buffer depth")
	flit := flag.Int("flit", 8, "flit width in bits")
	routing := flag.String("routing", "xy", "xy|yx|westfirst")
	cycles := flag.Int("cycles", 20000, "measurement cycles")
	seed := flag.Uint64("seed", 1, "workload seed")
	sweep := flag.String("sweep", "", "comma-separated rates for a sweep table")
	peak := flag.Bool("peak", false, "run the 5-connection peak-throughput experiment")
	vcdPath := flag.String("vcd", "", "trace the centre router's links to a VCD waveform file")
	domains := flag.Int("domains", 1, "shard the mesh into this many clock domains (column strips)")
	parallel := flag.Bool("parallel", false, "run clock domains on separate goroutines (needs -domains > 1)")
	flag.Parse()

	cfg := noc.Defaults(*w, *h)
	cfg.BufDepth = *depth
	cfg.FlitBits = *flit
	switch *routing {
	case "xy":
		cfg.Routing = noc.RouteXY
	case "yx":
		cfg.Routing = noc.RouteYX
	case "westfirst":
		cfg.Routing = noc.RouteWestFirst
	default:
		fatal(fmt.Errorf("unknown routing %q", *routing))
	}

	if *vcdPath != "" {
		if err := traceOnePacket(cfg, *vcdPath); err != nil {
			fatal(err)
		}
		return
	}

	if *peak {
		res, err := traffic.PeakThroughput(cfg, 50)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("router peak: measured %.3f Gbit/s of %.3f theoretical (%.1f%% efficiency)\n",
			res.MeasuredGbps, res.TheoreticalGbps, 100*res.Efficiency)
		return
	}

	spec := traffic.PatternSpec{Name: *pattern}
	if *hotspots != "" {
		spots, err := parseHotspots(*hotspots)
		if err != nil {
			fatal(err)
		}
		spec.Hotspots = spots
	} else if *pattern == "hotspot" {
		spec.Hotspots = []traffic.HotspotSpec{{X: *w / 2, Y: *h / 2, Weight: 0.2}}
	}
	if *burstLen != 0 || *burstPeak != 0 {
		spec.Burst = &traffic.BurstSpec{Len: *burstLen, Peak: *burstPeak}
	}
	if *mcGroup != "" {
		group, err := parseAddrs(*mcGroup)
		if err != nil {
			fatal(err)
		}
		spec.Group = group
		spec.MulticastUnicast = *mcUnicast
	}
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fatal(err)
		}
		entries, err := traffic.ReadTrace(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		spec.Name = "trace"
		spec.Trace = entries
	}

	rates := []float64{*rate}
	if *sweep != "" {
		rates = nil
		for _, f := range strings.Split(*sweep, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				fatal(err)
			}
			rates = append(rates, v)
		}
	}
	if *record != "" && len(rates) != 1 {
		fatal(fmt.Errorf("-record needs a single rate, not a sweep"))
	}
	fmt.Printf("%8s %10s %10s %10s %10s %10s %8s\n",
		"offered", "accepted", "delivered", "lat.mean", "lat.p95", "lat.total", "packets")
	for _, r := range rates {
		tcfg := traffic.Config{
			Spec: spec, Rate: r, PayloadFlits: *payload, Seed: *seed,
			Warmup: *cycles / 4, Measure: *cycles, Drain: *cycles * 2,
			Domains: *domains, Parallel: *parallel,
		}
		var res traffic.Result
		var err error
		if *record != "" {
			var rec []traffic.TraceEntry
			res, rec, err = traffic.RunRecorded(cfg, tcfg)
			if err == nil {
				err = writeTraceFile(*record, rec)
			}
		} else {
			res, err = traffic.Run(cfg, tcfg)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%8.3f %10.4f %10.4f %10.1f %10d %10.1f %8d\n",
			res.Offered, res.Accepted, res.Delivered,
			res.Latency.MeanCycles, res.Latency.P95Cycles,
			res.Latency.MeanTotalCycles, res.MeasuredPackets)
	}
}

// parseHotspots parses the "x,y,w;x,y,w" weighted hotspot syntax.
func parseHotspots(s string) ([]traffic.HotspotSpec, error) {
	var spots []traffic.HotspotSpec
	for _, part := range strings.Split(s, ";") {
		fields := strings.Split(strings.TrimSpace(part), ",")
		if len(fields) != 3 {
			return nil, fmt.Errorf("hotspot %q: want x,y,weight", part)
		}
		x, errX := strconv.Atoi(strings.TrimSpace(fields[0]))
		y, errY := strconv.Atoi(strings.TrimSpace(fields[1]))
		wt, errW := strconv.ParseFloat(strings.TrimSpace(fields[2]), 64)
		if errX != nil || errY != nil || errW != nil {
			return nil, fmt.Errorf("hotspot %q: want x,y,weight", part)
		}
		spots = append(spots, traffic.HotspotSpec{X: x, Y: y, Weight: wt})
	}
	return spots, nil
}

// parseAddrs parses the "x,y;x,y" address-list syntax.
func parseAddrs(s string) ([]noc.Addr, error) {
	var addrs []noc.Addr
	for _, part := range strings.Split(s, ";") {
		fields := strings.Split(strings.TrimSpace(part), ",")
		if len(fields) != 2 {
			return nil, fmt.Errorf("address %q: want x,y", part)
		}
		x, errX := strconv.Atoi(strings.TrimSpace(fields[0]))
		y, errY := strconv.Atoi(strings.TrimSpace(fields[1]))
		if errX != nil || errY != nil {
			return nil, fmt.Errorf("address %q: want x,y", part)
		}
		addrs = append(addrs, noc.Addr{X: x, Y: y})
	}
	return addrs, nil
}

func writeTraceFile(path string, entries []traffic.TraceEntry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := traffic.WriteTrace(f, entries); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceOnePacket records the waveforms of a single corner-to-corner
// packet at the mesh centre, for inspection in a VCD viewer.
func traceOnePacket(cfg noc.Config, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	clk := sim.NewClock()
	net, err := noc.New(clk, cfg)
	if err != nil {
		return err
	}
	src, err := net.NewEndpoint(noc.Addr{X: 0, Y: 0})
	if err != nil {
		return err
	}
	dst := noc.Addr{X: cfg.Width - 1, Y: cfg.Height - 1}
	if _, err := net.NewEndpoint(dst); err != nil {
		return err
	}
	w := vcd.NewWriter(f)
	noc.AttachVCD(net, w, noc.Addr{X: cfg.Width / 2, Y: cfg.Height / 2}, dst)
	if err := w.Begin(); err != nil {
		return err
	}
	meta, err := src.Send(dst, make([]uint16, 16))
	if err != nil {
		return err
	}
	if err := clk.RunUntil(func() bool { return meta.EjectCycle != 0 }, 1_000_000); err != nil {
		return err
	}
	clk.Run(8)
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "traced %d cycles into %s\n", clk.Cycle(), path)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nocsim:", err)
	os.Exit(1)
}
