package main

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/noc"
	"repro/internal/sweep"
	"repro/internal/traffic"
)

// smallMesh runs a short traffic job on a 3x3 mesh and returns its
// network for the checks to inspect.
func smallMesh(t *testing.T) *noc.Network {
	t.Helper()
	var net *noc.Network
	_, err := traffic.Run(noc.Defaults(3, 3), traffic.Config{
		Rate: 0.05, PayloadFlits: 4, Seed: 9, Warmup: 100, Measure: 400, Drain: 5000,
		OnNetwork: func(n *noc.Network) { net = n },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkMesh(net); err != nil {
		t.Fatalf("a clean run fails the check: %v", err)
	}
	if len(net.Completed()) == 0 {
		t.Fatal("no packets delivered")
	}
	return net
}

func TestMeshCheckCatchesUndeliveredPacket(t *testing.T) {
	net := smallMesh(t)
	ep := net.Endpoint(noc.Addr{X: 0, Y: 0})
	if _, err := ep.Send(noc.Addr{X: 2, Y: 2}, make([]uint16, 4)); err != nil {
		t.Fatal(err)
	}
	net.Clock().Step()
	if err := checkMesh(net); err == nil {
		t.Error("a packet still in flight passes the check")
	}
}

func TestMeshCheckCatchesLatencyBelowFormula(t *testing.T) {
	net := smallMesh(t)
	m := net.Completed()[0]
	m.EjectCycle = m.InjectCycle + 1
	if err := checkMesh(net); err == nil {
		t.Error("a packet faster than the paper's formula passes the check")
	}
}

func TestSystemCheckCatchesWrongPixel(t *testing.T) {
	sys, err := core.New(core.Default())
	if err != nil {
		t.Fatal(err)
	}
	in := systemImage(3)
	out := edge.Sobel(in)
	if err := checkSystem(sys, in, out); err != nil {
		t.Fatalf("the golden image fails the check: %v", err)
	}
	out[2][3] ^= 1
	if err := checkSystem(sys, in, out); err == nil {
		t.Error("a corrupted pixel passes the check")
	}
}

func TestSweepCheckCatchesBadJobs(t *testing.T) {
	warm := newSweepJob(sweepMenu[0], 1)
	fresh := newSweepJob(sweepMenu[1], 2)
	res := traffic.Result{Offered: 0.05, Accepted: 0.05, MeasuredPackets: 7}
	p := &sweepPass{warm: map[string]traffic.Result{warm.Key(): res}, computed: map[string]sweep.JobRecord{}}
	snap := func(cached traffic.Result, status sweep.Status) sweep.BatchSnapshot {
		return sweep.BatchSnapshot{Done: true, Jobs: []sweep.JobRecord{
			{Key: warm.Key(), Status: sweep.StatusDone, Result: &cached, Cached: true},
			{Key: fresh.Key(), Status: status, Result: &res},
		}}
	}
	specs := []sweep.JobSpec{warm, fresh}
	if bad := p.check(specs, snap(res, sweep.StatusDone)); bad != 0 {
		t.Fatalf("a clean batch has %d bad jobs: %v", bad, p.failures)
	}
	wrong := res
	wrong.MeasuredPackets++
	if bad := p.check(specs, snap(wrong, sweep.StatusDone)); bad != 1 {
		t.Errorf("a cached result unlike its warm-up result: %d bad jobs, want 1", bad)
	}
	if bad := p.check(specs, snap(res, sweep.StatusFailed)); bad != 1 {
		t.Errorf("a failed job: %d bad jobs, want 1", bad)
	}
	if bad := p.check(specs[:1], snap(res, sweep.StatusDone)); bad != 1 {
		t.Errorf("a batch answered with extra jobs: %d bad jobs, want 1", bad)
	}
}

func TestGoldenMismatchFails(t *testing.T) {
	st := meshStats{Result: traffic.Result{Offered: 0.002, MeasuredPackets: 10}, Cycles: 25000, FlitHops: 1234}
	want, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if err := matchGolden(st, want); err != nil {
		t.Fatalf("equal statistics mismatch: %v", err)
	}
	st.FlitHops++
	if err := matchGolden(st, want); err == nil {
		t.Error("a changed flit-hop count matches the golden entry")
	}
}

// fakeJob simulates a job whose statistics are its seed; the traced
// run reports tracedDelta more, and err fails every job.
func fakeJob(tracedDelta uint64, err error) jobFunc {
	return func(seed uint64, tr *tracer, job int) (jobResult, error) {
		if err != nil {
			return jobResult{}, err
		}
		st := seed
		if tr != nil {
			st += tracedDelta
		}
		return jobResult{setup: phase{time.Millisecond, time.Millisecond}, timed: phase{time.Millisecond, time.Millisecond}, cycles: 1000, stats: st,
			layers: &layerSample{}}, nil
	}
}

func TestJobLoopCountsFailures(t *testing.T) {
	o := jobLoop("fake", fakeJob(0, nil), 3, 1, newBudget(1e-6), true, nil)
	if o.attempted != 6 || o.failed != 0 {
		t.Errorf("clean traced loop: attempted %d failed %d, want 6 and 0", o.attempted, o.failed)
	}
	o = jobLoop("fake", fakeJob(1, nil), 3, 1, newBudget(1e-6), true, nil)
	if o.attempted != 6 || o.failed != 3 {
		t.Errorf("traced statistics differ: attempted %d failed %d, want 6 and 3", o.attempted, o.failed)
	}
	o = jobLoop("fake", fakeJob(0, errors.New("boom")), 3, 1, newBudget(1e-6), false, nil)
	if o.attempted != 3 || o.failed != 3 {
		t.Errorf("failing jobs: attempted %d failed %d, want 3 and 3", o.attempted, o.failed)
	}
	golden := []json.RawMessage{json.RawMessage("1"), json.RawMessage("2"), json.RawMessage("3")}
	o = jobLoop("fake", fakeJob(0, nil), 3, 1, newBudget(1e-6), false, golden)
	if o.attempted != 3 || o.failed != 3 {
		t.Errorf("golden mismatch: attempted %d failed %d, want 3 and 3", o.attempted, o.failed)
	}
}
