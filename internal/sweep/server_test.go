package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/noc"
	"repro/internal/traffic"
)

func postBatch(t *testing.T, url string, req SubmitRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return v
}

func TestHTTPSubmitPollAndResults(t *testing.T) {
	s, err := NewService(Config{Workers: 2, Runner: instantRunner})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp := postBatch(t, srv.URL, SubmitRequest{
		ID:   "sweep-1",
		Jobs: []JobSpec{testSpec(0.02, 1), testSpec(0.05, 2)},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d, want 202", resp.StatusCode)
	}
	snap := decode[BatchSnapshot](t, resp)
	if snap.ID != "sweep-1" || len(snap.Jobs) != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}

	// Long-poll until done, then read one job's result directly.
	resp, err = http.Get(srv.URL + "/v1/batches/sweep-1?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	final := decode[BatchSnapshot](t, resp)
	if !final.Done {
		t.Fatalf("wait=1 returned unfinished batch: %+v", final)
	}
	resp, err = http.Get(srv.URL + "/v1/jobs/" + final.Jobs[0].Key)
	if err != nil {
		t.Fatal(err)
	}
	rec := decode[JobRecord](t, resp)
	if rec.Status != StatusDone || rec.Result == nil || rec.Result.Offered != 1 {
		t.Fatalf("job record = %+v, want done with result", rec)
	}

	resp, err = http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	st := decode[Stats](t, resp)
	if st.Computed != 2 || st.Workers != 2 {
		t.Errorf("stats = %+v, want computed=2 workers=2", st)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	s, err := NewService(Config{
		Workers:  1,
		QueueCap: 1,
		Runner: func(ctx context.Context, spec JobSpec) (traffic.Result, error) {
			started <- struct{}{}
			<-gate
			return instantRunner(ctx, spec)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { close(gate); drain(t, s) }()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Invalid spec → 400.
	resp := postBatch(t, srv.URL, SubmitRequest{Jobs: []JobSpec{testSpec(-1, 0)}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid spec: %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// Unparseable body → 400.
	r2, err := http.Post(srv.URL+"/v1/batches", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad body: %d, want 400", r2.StatusCode)
	}
	r2.Body.Close()

	// Unknown batch / job → 404.
	for _, path := range []string{"/v1/batches/nope", "/v1/jobs/nope"} {
		r, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, r.StatusCode)
		}
		r.Body.Close()
	}

	// Fill the worker and the queue...
	resp = postBatch(t, srv.URL, SubmitRequest{ID: "b1", Jobs: []JobSpec{testSpec(0.02, 1)}})
	resp.Body.Close()
	<-started
	resp = postBatch(t, srv.URL, SubmitRequest{ID: "b2", Jobs: []JobSpec{testSpec(0.02, 2)}})
	resp.Body.Close()

	// ...so the next batch gets 429 with a Retry-After hint.
	resp = postBatch(t, srv.URL, SubmitRequest{Jobs: []JobSpec{testSpec(0.02, 3)}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over capacity: %d, want 429", resp.StatusCode)
	}
	if after, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || after < 1 {
		t.Errorf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	resp.Body.Close()

	// Batch ID reuse with different jobs → 409.
	resp = postBatch(t, srv.URL, SubmitRequest{ID: "b1", Jobs: []JobSpec{testSpec(0.07, 9)}})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("mismatched resubmit: %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()

	// Idempotent resubmit of b1 → 202 again.
	resp = postBatch(t, srv.URL, SubmitRequest{ID: "b1", Jobs: []JobSpec{testSpec(0.02, 1)}})
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("idempotent resubmit: %d, want 202", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestHTTPSubmitStrictBody: a submission body whose job names a field
// no spec defines, or that has data after its JSON value, is a 400
// that names the problem and creates no batch, where a plain decoder
// would drop the misspelt field (running the job with the default
// payload) or ignore the trailing data. A valid body is still a 202.
func TestHTTPSubmitStrictBody(t *testing.T) {
	s, err := NewService(Config{Workers: 1, Runner: instantRunner})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const job = `{"width":2,"height":2,"rate":0.05,"seed":1,"payloadFlits":4}`
	for _, row := range []struct {
		name, body string
		status     int
		names      string // in the 400's error
	}{
		{"misspelt field", `{"jobs":[{"width":2,"height":2,"rate":0.05,"seed":1,"payloadFlit":4}]}`,
			http.StatusBadRequest, `unknown field "payloadFlit"`},
		{"unknown request field", `{"job":[` + job + `]}`, http.StatusBadRequest, `unknown field "job"`},
		{"trailing data", `{"jobs":[` + job + `]} trailing`, http.StatusBadRequest, "data after the JSON value"},
		{"second value", `{"jobs":[` + job + `]}{}`, http.StatusBadRequest, "data after the JSON value"},
		{"valid", "{\"jobs\":[" + job + "]}\n", http.StatusAccepted, ""},
	} {
		before := s.Stats().Batches
		resp, err := http.Post(srv.URL+"/v1/batches", "application/json", strings.NewReader(row.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != row.status {
			t.Errorf("%s: %d, want %d", row.name, resp.StatusCode, row.status)
		}
		batches := s.Stats().Batches - before
		if row.status != http.StatusAccepted {
			if e := decode[errorResponse](t, resp); !strings.Contains(e.Error, row.names) {
				t.Errorf("%s: error %q does not name %q", row.name, e.Error, row.names)
			}
			if batches != 0 {
				t.Errorf("%s: created %d batches", row.name, batches)
			}
			continue
		}
		resp.Body.Close()
		if batches != 1 {
			t.Errorf("%s: created %d batches, want 1", row.name, batches)
		}
	}
}

// TestHTTPPatternSweep: malformed pattern-library parameters are caught
// at submission time — no worker is spent before the 400 — and a batch
// sweeping several pattern names runs to completion on the real
// simulator with measured results for every job.
func TestHTTPPatternSweep(t *testing.T) {
	s, err := NewService(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	spec := func(mut func(*experiments.TrafficJob)) JobSpec {
		js := testSpec(0.04, 7)
		mut(&js.TrafficJob)
		return js
	}

	bad := []JobSpec{
		spec(func(j *experiments.TrafficJob) { // hotspot weights sum > 1
			j.Pattern = "hotspot"
			j.Hotspots = []traffic.HotspotSpec{
				{X: 1, Y: 1, Weight: 0.7}, {X: 2, Y: 2, Weight: 0.7}}
		}),
		spec(func(j *experiments.TrafficJob) { // empty multicast set
			j.Pattern = "multicast"
		}),
		spec(func(j *experiments.TrafficJob) { // trace entry off the mesh
			j.Pattern = "trace"
			j.Trace = []traffic.TraceEntry{
				{Cycle: 1, Dst: noc.Addr{X: 9, Y: 0}, Payload: 1}}
		}),
		spec(func(j *experiments.TrafficJob) { // rate at the burst peak
			j.Pattern = "bursty"
			j.BurstPeak = 0.04
		}),
		spec(func(j *experiments.TrafficJob) { // hotspots on uniform traffic
			j.Hotspots = []traffic.HotspotSpec{{X: 1, Y: 1, Weight: 0.3}}
		}),
		spec(func(j *experiments.TrafficJob) { // multicast set on transpose
			j.Pattern = "transpose"
			j.Multicast = []noc.Addr{{X: 0, Y: 0}, {X: 1, Y: 1}}
		}),
		spec(func(j *experiments.TrafficJob) { // unknown kernel
			j.Kernel = "turbo"
		}),
		spec(func(j *experiments.TrafficJob) { // removed sharded kernel
			j.Kernel = "sharded2"
		}),
		spec(func(j *experiments.TrafficJob) { // removed parallel kernel
			j.Kernel = "parallel4"
		}),
	}
	for i, js := range bad {
		resp := postBatch(t, srv.URL, SubmitRequest{Jobs: []JobSpec{js}})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad pattern %d: %d, want 400", i, resp.StatusCode)
		}
		resp.Body.Close()
	}

	jobs := []JobSpec{
		spec(func(j *experiments.TrafficJob) { j.Pattern = "bitrev" }),
		spec(func(j *experiments.TrafficJob) { j.Pattern = "transpose" }),
		spec(func(j *experiments.TrafficJob) { j.Pattern = "bursty"; j.Rate = 0.03 }),
		spec(func(j *experiments.TrafficJob) {
			j.Pattern = "multicast"
			j.Rate = 0.02
			j.Multicast = []noc.Addr{{X: 0, Y: 3}, {X: 3, Y: 0}, {X: 3, Y: 3}}
		}),
	}
	resp := postBatch(t, srv.URL, SubmitRequest{ID: "patterns", Jobs: jobs})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pattern batch: %d, want 202", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/v1/batches/patterns?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	final := decode[BatchSnapshot](t, resp)
	if !final.Done || len(final.Jobs) != len(jobs) {
		t.Fatalf("pattern batch did not finish: %+v", final)
	}
	for i, js := range final.Jobs {
		r, err := http.Get(srv.URL + "/v1/jobs/" + js.Key)
		if err != nil {
			t.Fatal(err)
		}
		rec := decode[JobRecord](t, r)
		if rec.Status != StatusDone || rec.Result == nil || rec.Result.MeasuredPackets == 0 {
			t.Errorf("pattern job %d: %+v, want done with measured traffic", i, rec)
		}
	}
}

// TestHTTPSubmitRejectsHugeBufDepth: a job whose buffer depth is out of
// range is a client error at submission time. The mesh would allocate
// every buffer slot up front, about 5 TB for a depth of 10^9 on the
// default 8x8 mesh, which the Go runtime treats as a fatal error, not a
// panic a worker can recover. So the 400 must come before any runner
// builds a mesh, and must name the accepted range.
func TestHTTPSubmitRejectsHugeBufDepth(t *testing.T) {
	s, err := NewService(Config{Workers: 1, Runner: func(ctx context.Context, spec JobSpec) (traffic.Result, error) {
		t.Errorf("runner called for %+v", spec)
		return instantRunner(ctx, spec)
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	js := JobSpec{TrafficJob: experiments.TrafficJob{Rate: 0.02, PayloadFlits: 4, Seed: 1,
		Warmup: 50, Measure: 200, Drain: 2000, BufDepth: 1_000_000_000}}
	resp := postBatch(t, srv.URL, SubmitRequest{Jobs: []JobSpec{js}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bufDepth 10^9: %d, want 400", resp.StatusCode)
	}
	if e := decode[errorResponse](t, resp); !strings.Contains(e.Error, "1..1024") {
		t.Errorf("error %q does not name the range 1..1024", e.Error)
	}
}
