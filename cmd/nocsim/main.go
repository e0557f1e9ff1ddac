// Command nocsim runs synthetic traffic through a standalone Hermes
// NoC and prints latency/throughput figures — the workhorse behind the
// E1/E2/E3 experiments. Its flags describe one experiments.TrafficJob
// per offered rate, run through TrafficJob.Run exactly as the sweep
// service runs a submitted job.
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
//	nocsim -w 16 -h 16 -rate 0.002 -kernel dense   # the activity oracle
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/vcd"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nocsim:", err)
		os.Exit(1)
	}
}

// options is a parsed command line: the traffic experiment as one job
// per offered rate, and the side experiments that only need its mesh.
type options struct {
	jobs   []experiments.TrafficJob
	peak   bool
	vcd    string
	record string
}

func parse(args []string) (*options, error) {
	fs := flag.NewFlagSet("nocsim", flag.ExitOnError)
	w := fs.Int("w", 4, "mesh width")
	h := fs.Int("h", 4, "mesh height")
	rate := fs.Float64("rate", 0.1, "offered load, flits/cycle/node")
	pattern := fs.String("pattern", "uniform", "uniform|transpose|bitcomp|bitrev|hotspot|bursty|multicast")
	hotspots := fs.String("hotspots", "", `weighted hotspot set as "x,y,w;x,y,w" (default: mesh centre at 0.2)`)
	burstLen := fs.Float64("burstlen", 0, "mean packets per burst (0 = library default)")
	burstPeak := fs.Float64("burstpeak", 0, "in-burst injection rate, flits/cycle (0 = library default)")
	mcGroup := fs.String("mcgroup", "", `multicast destination set as "x,y;x,y"`)
	mcUnicast := fs.Bool("mcunicast", false, "deliver multicast by unicast replication instead of path forwarding")
	record := fs.String("record", "", "write the injection log to this NDJSON trace file")
	replay := fs.String("replay", "", "replay an NDJSON trace file instead of a synthetic pattern")
	payload := fs.Int("payload", 8, "payload flits per packet")
	depth := fs.Int("depth", 2, "input buffer depth")
	flit := fs.Int("flit", 8, "flit width in bits")
	routing := fs.String("routing", "xy", "xy|yx|westfirst")
	cycles := fs.Int("cycles", 20000, "measurement cycles (warmup is a quarter, the drain budget twice that)")
	seed := fs.Uint64("seed", 1, "workload seed")
	sweep := fs.String("sweep", "", "comma-separated rates for a sweep table")
	peak := fs.Bool("peak", false, "run the 5-connection peak-throughput experiment")
	vcdPath := fs.String("vcd", "", "trace the centre router's links to a VCD waveform file")
	kernel := fs.String("kernel", "", "simulation kernel: nowarp|dense (default: activity scheduling with time warp)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	// A zero TrafficJob field means "default", so a zero flag would
	// silently run another experiment, and -cycles below 4 a zero warmup.
	if *w < 1 || *h < 1 || *payload < 1 || *depth < 1 || *flit < 1 || *cycles < 4 {
		return nil, fmt.Errorf("-w, -h, -payload, -depth and -flit must be positive, -cycles at least 4")
	}

	job := experiments.TrafficJob{
		Width: *w, Height: *h, FlitBits: *flit, BufDepth: *depth, Routing: *routing,
		Pattern: *pattern, BurstLen: *burstLen, BurstPeak: *burstPeak, MulticastUnicast: *mcUnicast,
		PayloadFlits: *payload, Seed: *seed,
		Warmup: *cycles / 4, Measure: *cycles, Drain: *cycles * 2,
		Kernel: sim.Kernel(*kernel),
	}
	if *replay != "" {
		b, err := os.ReadFile(*replay)
		if err == nil {
			job.Trace, err = traffic.ReadTrace(bytes.NewReader(b))
		}
		if err != nil {
			return nil, err
		}
		job.Pattern = "trace"
	}
	var err error
	if *hotspots != "" {
		if job.Hotspots, err = parseHotspots(*hotspots); err != nil {
			return nil, err
		}
	} else if job.Pattern == "hotspot" {
		job.Hotspots = []traffic.HotspotSpec{{X: *w / 2, Y: *h / 2, Weight: 0.2}}
	}
	if *mcGroup != "" {
		if job.Multicast, err = parseAddrs(*mcGroup); err != nil {
			return nil, err
		}
	}

	o := &options{peak: *peak, vcd: *vcdPath, record: *record}
	rates := []float64{*rate}
	if *sweep != "" {
		rates = nil
		for _, f := range strings.Split(*sweep, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, err
			}
			rates = append(rates, v)
		}
	}
	if o.record != "" && len(rates) != 1 {
		return nil, fmt.Errorf("-record needs a single rate, not a sweep")
	}
	for _, r := range rates {
		job.Rate = r
		o.jobs = append(o.jobs, job)
	}
	return o, nil
}

func run(args []string, stdout io.Writer) error {
	o, err := parse(args)
	if err != nil {
		return err
	}
	ncfg, _, err := o.jobs[0].Configs()
	if err != nil {
		return err
	}
	if o.vcd != "" {
		return traceOnePacket(ncfg, o.jobs[0].Kernel, o.vcd)
	}
	if o.peak {
		res, err := traffic.PeakThroughput(ncfg, 50, o.jobs[0].Kernel)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "router peak: measured %.3f Gbit/s of %.3f theoretical (%.1f%% efficiency)\n",
			res.MeasuredGbps, res.TheoreticalGbps, 100*res.Efficiency)
		return nil
	}
	_, err = o.runTraffic(stdout)
	return err
}

// runTraffic validates every job, then runs them in rate order and
// prints one table row per result as it completes.
func (o *options) runTraffic(stdout io.Writer) ([]traffic.Result, error) {
	for _, j := range o.jobs {
		if err := j.Validate(); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(stdout, "%8s %10s %10s %10s %10s %10s %8s\n",
		"offered", "accepted", "delivered", "lat.mean", "lat.p95", "lat.total", "packets")
	var results []traffic.Result
	for _, j := range o.jobs {
		var res traffic.Result
		var err error
		if o.record != "" {
			res, err = recordJob(j, o.record)
		} else {
			res, err = j.Run(context.Background(), 0)
		}
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "%8.3f %10.4f %10.4f %10.1f %10d %10.1f %8d\n",
			res.Offered, res.Accepted, res.Delivered,
			res.Latency.MeanCycles, res.Latency.P95Cycles,
			res.Latency.MeanTotalCycles, res.MeasuredPackets)
		results = append(results, res)
	}
	return results, nil
}

// recordJob runs the job's resolved configuration while recording its
// injections, and writes them to path as an NDJSON trace.
func recordJob(j experiments.TrafficJob, path string) (traffic.Result, error) {
	ncfg, tcfg, err := j.Configs()
	if err != nil {
		return traffic.Result{}, err
	}
	res, rec, err := traffic.RunRecorded(ncfg, tcfg)
	if err != nil {
		return traffic.Result{}, err
	}
	var buf bytes.Buffer
	traffic.WriteTrace(&buf, rec) // cannot fail: plain structs into memory
	return res, os.WriteFile(path, buf.Bytes(), 0o666)
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

// traceOnePacket records the waveforms of a single corner-to-corner
// packet at the mesh centre under kernel, for inspection in a VCD
// viewer. Every kernel writes the same file.
func traceOnePacket(cfg noc.Config, kernel sim.Kernel, path string) error {
	net, err := noc.New(cfg, kernel)
	if err != nil {
		return err
	}
	clk := net.Clock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
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
	return f.Close()
}
