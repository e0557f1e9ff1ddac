package main

import (
	"repro/internal/noc"
)

// layerSample is what one traced job of a job-loop workload observed.
// Counts cover the whole job; the timed* fields cover its timed phase
// (everything after the build for a mesh job, Driver.Process for
// system-edge).
type layerSample struct {
	// first marks the first traced job of each input: exact counts
	// average over exactly these, so they repeat run to run.
	first bool

	clk, timedClk, loadClk clockSnap
	routers                noc.RouterStats
	timedHops              uint64
	inputs                 int // connected input buffers of the mesh
	timedNS                int64
	times                  map[string]float64 // phase durations by metric name

	build, measure, timedRuntime runtimeSnap
	measureCyc                   uint64

	offered, accepted float64
	packets           uint64

	instructions, timedInstructions, r8Cycles uint64
}

// layerMetrics turns the traced jobs' samples into the per-layer
// metrics. Counts and the ratios of counts are per-job means over the
// first job of each input, so they are exact; times are medians over
// every traced job.
func layerMetrics(samples []*layerSample) map[string]float64 {
	m := zeroLayers()
	var (
		n                      float64
		cycles, steps, warped  float64
		evals, hops, routed    float64
		blocked, wait, bufCyc  float64
		bufSlots               float64
		offered, accepted, pkt float64
		loadCycles, loadWarped float64
		instr, r8cyc           float64
		gcs, gcCPU, totalCPU   float64
	)
	times := map[string][]float64{}
	var nsStep, nsEval, nsHop, nsInstr, buildObj, buildMB, msrObj []float64
	for _, s := range samples {
		for k, v := range s.times {
			times[k] = append(times[k], v)
		}
		ns := float64(s.timedNS)
		nsStep = appendRatio(nsStep, ns, float64(s.timedClk.steps))
		nsEval = appendRatio(nsEval, ns, float64(s.timedClk.evals))
		nsHop = appendRatio(nsHop, ns, float64(s.timedHops))
		nsInstr = appendRatio(nsInstr, ns, float64(s.timedInstructions))
		buildObj = append(buildObj, float64(s.build.mallocs))
		buildMB = append(buildMB, float64(s.build.bytes)/1e6)
		msrObj = appendRatio(msrObj, float64(s.measure.mallocs), float64(s.measureCyc)/1000)
		gcs += float64(s.timedRuntime.gcs)
		gcCPU += s.timedRuntime.gcCPU
		totalCPU += s.timedRuntime.totalCPU
		if !s.first {
			continue
		}
		n++
		cycles += float64(s.clk.cycles)
		steps += float64(s.clk.steps)
		warped += float64(s.clk.warped)
		evals += float64(s.clk.evals)
		hops += float64(s.routers.TotalFlits())
		routed += float64(s.routers.PacketsRouted)
		blocked += float64(s.routers.BlockedAttempts)
		wait += float64(s.routers.WaitCycles)
		bufCyc += float64(s.routers.BufferedFlitCycles)
		bufSlots += float64(s.clk.cycles) * float64(s.inputs)
		offered += s.offered
		accepted += s.accepted
		pkt += float64(s.packets)
		loadCycles += float64(s.loadClk.cycles)
		loadWarped += float64(s.loadClk.warped)
		instr += float64(s.instructions)
		r8cyc += float64(s.r8Cycles)
	}
	m["sim.cycles"] = ratio(cycles, n)
	m["sim.steps"] = ratio(steps, n)
	m["sim.warped_cycles"] = ratio(warped, n)
	m["sim.evals"] = ratio(evals, n)
	m["sim.steps_per_cycle"] = ratio(steps, cycles)
	m["sim.evals_per_step"] = ratio(evals, steps)
	m["sim.ns_per_step"] = median(nsStep)
	m["sim.ns_per_eval"] = median(nsEval)

	m["noc.flit_hops"] = ratio(hops, n)
	m["noc.packets_routed"] = ratio(routed, n)
	m["noc.blocked_attempts"] = ratio(blocked, n)
	m["noc.wait_cycles"] = ratio(wait, n)
	m["noc.block_ratio"] = ratio(blocked, routed+blocked)
	m["noc.buffer_occupancy"] = ratio(bufCyc, bufSlots)
	m["noc.ns_per_flit_hop"] = median(nsHop)

	m["traffic.accept_ratio"] = ratio(accepted, offered)
	m["traffic.packets"] = ratio(pkt, n)

	m["alloc.build_objects"] = median(buildObj)
	m["alloc.build_mb"] = median(buildMB)
	m["alloc.measure_objects_per_kcycle"] = median(msrObj)
	m["gc.cycles"] = ratio(gcs, float64(len(samples)))
	m["gc.cpu_share"] = ratio(gcCPU, totalCPU)

	m["core.load_warp_share"] = ratio(loadWarped, loadCycles)
	m["r8.instructions"] = ratio(instr, n)
	m["r8.cpi"] = ratio(r8cyc, instr)
	m["r8.ns_per_instruction"] = median(nsInstr)
	for k, v := range times {
		m[k] = median(v)
	}
	return m
}

// appendRatio appends a/b to xs unless b is 0 (a layer the job never
// entered).
func appendRatio(xs []float64, a, b float64) []float64 {
	if b == 0 {
		return xs
	}
	return append(xs, a/b)
}

// zeroLayers returns every per-layer metric at 0, the reading of a
// layer the workload does not enter.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}
