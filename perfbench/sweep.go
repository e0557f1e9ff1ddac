package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/sweep"
	"repro/internal/traffic"
)

// The sweep-batch workload: an in-process sweep.Service with a
// journal, served over loopback, driven closed loop by sweepClients
// clients that each submit a batch and long-poll it before sending the
// next. Half of every batch is new small jobs; the other half
// resubmits warm-up jobs, which the dedupe cache serves.
const (
	sweepWorkers = 2
	sweepClients = 2
	batchJobs    = 16
	warmupJobs   = 32
	// restarts is how many times a run restarts the service over the
	// warm-up journal; setup_s is their median.
	restarts = 11
	// refRuns is how many times the reference runs before the load and
	// again after it.
	refRuns = 5
)

// sweepMenu lists the new-job shapes. Every batch carries each shape
// once, in a seed-shuffled order and with fresh seeds, so a batch
// holds the same work for every workload seed.
var sweepMenu = []experiments.TrafficJob{
	{Width: 2, Height: 2, Pattern: "uniform", Rate: 0.05},
	{Width: 2, Height: 2, Pattern: "transpose", Rate: 0.10},
	{Width: 2, Height: 2, Pattern: "bitrev", Rate: 0.10},
	{Width: 2, Height: 2, Pattern: "hotspot", Hotspots: []traffic.HotspotSpec{{X: 1, Y: 1, Weight: 0.5}}, Rate: 0.10},
	{Width: 3, Height: 3, Pattern: "uniform", Rate: 0.10},
	{Width: 3, Height: 3, Pattern: "transpose", Rate: 0.05},
	{Width: 3, Height: 3, Pattern: "bitcomp", Rate: 0.10},
	{Width: 3, Height: 3, Pattern: "bursty", Rate: 0.05},
}

// newSweepJob fills in the windows shared by every sweep job.
func newSweepJob(shape experiments.TrafficJob, seed uint64) sweep.JobSpec {
	shape.Seed = seed
	shape.Warmup, shape.Measure, shape.Drain = 200, 1000, 5000
	return sweep.JobSpec{TrafficJob: shape}
}

// sweepInputs generates every job spec a run may submit from the
// workload seed: the warm-up set, and per client an endless sequence
// of batches.
type sweepInputs struct {
	seed   uint64
	warmup []sweep.JobSpec
}

func newSweepInputs(seed uint64) sweepInputs {
	r := rand.New(rand.NewPCG(seed, 0))
	in := sweepInputs{seed: seed}
	for i := 0; i < warmupJobs; i++ {
		in.warmup = append(in.warmup, newSweepJob(sweepMenu[i%len(sweepMenu)], r.Uint64()))
	}
	return in
}

// batch returns client c's b-th batch: the menu shuffled with fresh
// seeds, then len(sweepMenu) warm-up jobs in rotation.
func (in sweepInputs) batch(c, b int) []sweep.JobSpec {
	r := rand.New(rand.NewPCG(in.seed, uint64(1+c)<<32|uint64(b)))
	specs := make([]sweep.JobSpec, 0, batchJobs)
	for _, i := range r.Perm(len(sweepMenu)) {
		specs = append(specs, newSweepJob(sweepMenu[i], r.Uint64()))
	}
	for i := 0; i < batchJobs-len(sweepMenu); i++ {
		specs = append(specs, in.warmup[((b*sweepClients+c)*(batchJobs-len(sweepMenu))+i)%warmupJobs])
	}
	return specs
}

// sweepPass is one prepared service run: warm-up, restarts and the
// closed-loop load.
type sweepPass struct {
	in     sweepInputs
	dir    string
	tr     *tracer
	budget budget // of the load phase

	warm map[string]traffic.Result // warm-up results by job key

	mu         sync.Mutex
	failures   []string
	attempt    int
	failed     int
	non2xx     int
	setups     []float64 // CPU time
	setupsWall []float64
	replays    []float64
	submits    []float64
	batches    []float64
	jobsDone   int
	computed   map[string]sweep.JobRecord // new jobs by key
	keyBatch   map[string]int             // traced: job key → batch span

	runs    []float64 // traced: TrafficJob.Run seconds
	loadNS  int64
	loadCPU time.Duration
	refs    []float64 // reference CPU seconds around the load
	jBefore int64     // journal size when the load starts
	jAfter  int64
	// Service counters over the load, from /v1/healthz.
	hits, respawns, shed int
}

func (p *sweepPass) fail(format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

// config is the service configuration; a traced pass wraps the runner
// to time the same TrafficJob.Run call the default runner makes.
func (p *sweepPass) config(journal string) sweep.Config {
	cfg := sweep.Config{Workers: sweepWorkers, JournalPath: journal}
	if p.tr == nil {
		return cfg
	}
	cfg.Runner = func(ctx context.Context, spec sweep.JobSpec) (traffic.Result, error) {
		key := spec.Key()
		p.mu.Lock()
		parent, ok := p.keyBatch[key]
		p.mu.Unlock()
		if !ok {
			parent = -1
		}
		t0 := p.tr.now()
		res, err := spec.TrafficJob.Run(ctx, spec.MaxCycles)
		t1 := p.tr.now()
		p.tr.add("experiments.TrafficJob.Run", t0, t1, parent, -1)
		p.mu.Lock()
		p.runs = append(p.runs, secs(t1-t0))
		p.mu.Unlock()
		return res, err
	}
	return cfg
}

// prepare runs the warm-up sweep in-process, untimed and untraced,
// and keeps its journal and results.
func (p *sweepPass) prepare() error {
	svc, err := sweep.NewService(sweep.Config{Workers: sweepWorkers, JournalPath: filepath.Join(p.dir, "warm.journal")})
	if err != nil {
		return err
	}
	snap, err := svc.Submit("warm-up", p.in.warmup)
	if err == nil {
		snap, err = svc.WaitBatch(context.Background(), snap.ID)
	}
	if derr := svc.Drain(context.Background()); err == nil {
		err = derr
	}
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	p.warm = map[string]traffic.Result{}
	for _, j := range snap.Jobs {
		if j.Status != sweep.StatusDone || j.Result == nil {
			return fmt.Errorf("warm-up job %s ended %s: %s", j.Key, j.Status, j.Error)
		}
		p.warm[j.Key] = *j.Result
	}
	return nil
}

// client is one closed-loop HTTP client of the service.
type client struct {
	p    *sweepPass
	http *http.Client
	base string
}

// post submits a batch and returns the service's snapshot of it.
func (c *client) post(specs []sweep.JobSpec, batchSpan int) (sweep.BatchSnapshot, error) {
	body, err := json.Marshal(sweep.SubmitRequest{Jobs: specs})
	if err != nil {
		return sweep.BatchSnapshot{}, err
	}
	t0 := time.Now()
	var start int64
	if c.p.tr != nil {
		start = c.p.tr.now()
	}
	resp, err := c.http.Post(c.base+"/v1/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		return sweep.BatchSnapshot{}, err
	}
	var snap sweep.BatchSnapshot
	if err := c.decode(resp, &snap); err != nil {
		return sweep.BatchSnapshot{}, fmt.Errorf("submit: %w", err)
	}
	c.p.mu.Lock()
	c.p.submits = append(c.p.submits, time.Since(t0).Seconds())
	c.p.mu.Unlock()
	if c.p.tr != nil {
		c.p.tr.add("sweep.submit", start, c.p.tr.now(), batchSpan, -1)
	}
	return snap, nil
}

// decode reads a JSON response body into v, counting non-2xx
// responses.
func (c *client) decode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		c.p.mu.Lock()
		c.p.non2xx++
		c.p.mu.Unlock()
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}

// health reads the service's counters from /v1/healthz.
func (c *client) health() (sweep.Stats, error) {
	var st sweep.Stats
	resp, err := c.http.Get(c.base + "/v1/healthz")
	if err == nil {
		err = c.decode(resp, &st)
	}
	if err != nil {
		return st, fmt.Errorf("healthz: %w", err)
	}
	return st, nil
}

// wait long-polls a batch until every job is terminal, or fails once
// the run is past its wall-time cap.
func (c *client) wait(id string) (sweep.BatchSnapshot, error) {
	for !c.p.budget.overdue() {
		resp, err := c.http.Get(c.base + "/v1/batches/" + id + "?wait=1")
		if err != nil {
			return sweep.BatchSnapshot{}, err
		}
		var snap sweep.BatchSnapshot
		if err := c.decode(resp, &snap); err != nil || snap.Done {
			return snap, err
		}
	}
	return sweep.BatchSnapshot{}, fmt.Errorf("batch %s not done within the wall-time cap", id)
}

// check verifies a finished batch: every job done, and every cached
// result equal to the warm-up result for its key. It returns how many
// jobs failed.
func (p *sweepPass) check(specs []sweep.JobSpec, snap sweep.BatchSnapshot) int {
	if len(snap.Jobs) != len(specs) {
		p.fail("batch %s returned %d jobs for %d submitted", snap.ID, len(snap.Jobs), len(specs))
		return len(specs)
	}
	bad := 0
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, j := range snap.Jobs {
		switch {
		case j.Status != sweep.StatusDone || j.Result == nil:
			bad++
			p.failures = append(p.failures, fmt.Sprintf("job %s ended %s: %s", j.Key, j.Status, j.Error))
		case j.Cached:
			if w, ok := p.warm[j.Key]; !ok || !reflect.DeepEqual(w, *j.Result) {
				bad++
				p.failures = append(p.failures, fmt.Sprintf("cached job %s differs from its warm-up result", j.Key))
			}
		default:
			p.computed[j.Key] = j
		}
	}
	return bad
}

// runBatch drives one batch through the service.
func (c *client) runBatch(specs []sweep.JobSpec, batchNo int) {
	p := c.p
	started := time.Now()
	span := -1
	if p.tr != nil {
		span = p.tr.begin("sweep.batch", -1, batchNo)
		p.mu.Lock()
		for _, s := range specs {
			p.keyBatch[s.Key()] = span
		}
		p.mu.Unlock()
	}
	snap, err := c.post(specs, span)
	if err == nil && !snap.Done {
		snap, err = c.wait(snap.ID)
	}
	if p.tr != nil {
		p.tr.end(span)
	}
	bad := len(specs)
	if err != nil {
		p.fail("batch %d: %v", batchNo, err)
	} else {
		bad = p.check(specs, snap)
	}
	p.mu.Lock()
	p.attempt += len(specs)
	p.failed += bad
	p.jobsDone += len(specs) - bad
	p.batches = append(p.batches, time.Since(started).Seconds())
	p.mu.Unlock()
}

// restart starts the service over a fresh copy of the warm-up journal
// and submits a batch of warm-up jobs, timing the two together: the
// set-up ends when the restarted service accepts its first batch,
// which it must answer from the cache it replayed.
func (p *sweepPass) restart(trial int) (*sweep.Service, *httptest.Server, *client, error) {
	journal := filepath.Join(p.dir, fmt.Sprintf("run%d.journal", trial))
	warm, err := os.ReadFile(filepath.Join(p.dir, "warm.journal"))
	if err != nil {
		return nil, nil, nil, err
	}
	if err := os.WriteFile(journal, warm, 0o644); err != nil {
		return nil, nil, nil, err
	}
	root, start := -1, int64(0)
	if p.tr != nil {
		root, start = p.tr.begin("sweep.restart", -1, trial), p.tr.now()
	}
	t0 := now()
	svc, err := sweep.NewService(p.config(journal))
	if err != nil {
		return nil, nil, nil, err
	}
	replayed := t0.until(now())
	if p.tr != nil {
		p.tr.add("sweep.NewService", start, p.tr.now(), root, trial)
	}
	srv := httptest.NewServer(svc.Handler())
	c := &client{p: p, base: srv.URL, http: &http.Client{
		Timeout:   time.Minute, // a long-poll returns within 25 s
		Transport: &http.Transport{MaxConnsPerHost: sweepClients, MaxIdleConnsPerHost: sweepClients}}}
	specs := p.in.warmup[:batchJobs]
	snap, err := c.post(specs, root)
	setup := t0.until(now())
	if p.tr != nil {
		p.tr.end(root)
	}
	if err != nil {
		srv.Close()
		svc.Drain(context.Background())
		return nil, nil, nil, err
	}
	bad := p.check(specs, snap)
	p.mu.Lock()
	p.attempt += len(specs)
	p.failed += bad
	p.setups = append(p.setups, setup.cpu.Seconds())
	p.setupsWall = append(p.setupsWall, setup.wall.Seconds())
	p.replays = append(p.replays, replayed.wall.Seconds())
	p.mu.Unlock()
	return svc, srv, c, nil
}

// run executes the pass: warm-up, restarts, then the closed-loop load
// until the time budget is spent.
func (p *sweepPass) run() error {
	if err := p.prepare(); err != nil {
		return err
	}
	p.computed = map[string]sweep.JobRecord{}
	p.keyBatch = map[string]int{}
	var (
		svc *sweep.Service
		srv *httptest.Server
		c   *client
		err error
	)
	for trial := 0; trial < restarts; trial++ {
		if svc != nil {
			c.http.CloseIdleConnections()
			srv.Close()
			if err := svc.Drain(context.Background()); err != nil {
				return fmt.Errorf("restart %d: drain: %w", trial, err)
			}
		}
		if svc, srv, c, err = p.restart(trial); err != nil {
			return fmt.Errorf("restart %d: %w", trial, err)
		}
	}
	defer srv.Close()
	journal := filepath.Join(p.dir, fmt.Sprintf("run%d.journal", restarts-1))
	p.jBefore = fileSize(journal)
	before, err := c.health()
	if err != nil {
		return err
	}
	p.timeReference()
	p.budget.scale = p.scale()

	loadStart, loadCPU := time.Now(), cpuTime()
	p.budget.start()
	var batchNo atomic.Int64
	var wg sync.WaitGroup
	for cl := 0; cl < sweepClients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for b := 0; !p.budget.spent(); b++ {
				c.runBatch(p.in.batch(cl, b), int(batchNo.Add(1)))
			}
		}(cl)
	}
	wg.Wait()
	p.loadNS = int64(time.Since(loadStart))
	p.loadCPU = cpuTime() - loadCPU

	after, err := c.health()
	if err != nil {
		return err
	}
	p.timeReference()
	p.hits = after.CacheHits - before.CacheHits
	p.respawns = after.Respawns - before.Respawns
	p.shed = after.Shed - before.Shed
	c.http.CloseIdleConnections()
	if err := svc.Drain(context.Background()); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	p.jAfter = fileSize(journal)
	return nil
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// timeReference times the reference while the service is idle, just
// before and just after the load.
func (p *sweepPass) timeReference() {
	for i := 0; i < refRuns; i++ {
		p.refs = append(p.refs, reference().Seconds())
	}
}

// scale is the pass's reference scale (see refScale).
func (p *sweepPass) scale() float64 { return refScale(median(p.refs)) }

// jobsPerCPUS is the pass's throughput: jobs completed, computed or
// cached, per CPU-second the process spent in the load phase.
func (p *sweepPass) jobsPerCPUS() float64 { return ratio(float64(p.jobsDone), p.loadCPU.Seconds()) }

// sweepBatch runs the sweep-batch workload. A traced run makes an
// untraced pass and then a traced one on the same inputs; both must
// compute identical results, and their throughputs give the tracing
// overhead.
func sweepBatch(seed uint64, b budget, traced bool) (outcome, error) {
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return outcome{}, err
	}
	dir, err := os.MkdirTemp(scratchDir, "sweep-")
	if err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(dir)
	in := newSweepInputs(seed)
	if traced {
		b = b.half() // an untraced and a traced pass share the budget
	}
	newPass := func(name string, tr *tracer) (*sweepPass, error) {
		p := &sweepPass{in: in, dir: filepath.Join(dir, name), tr: tr, budget: b}
		if err := os.Mkdir(p.dir, 0o755); err != nil {
			return nil, err
		}
		return p, p.run()
	}
	p, err := newPass("untraced", nil)
	if err != nil {
		return outcome{}, err
	}
	var o outcome
	passes := []*sweepPass{p}
	if traced {
		t, err := newPass("traced", newTracer())
		if err != nil {
			return outcome{}, err
		}
		passes = append(passes, t)
		o.metrics = sweepLayers(t)
		o.metrics["trace.overhead"] = ratio(p.jobsPerCPUS(), t.jobsPerCPUS()) - 1
		o.tracer = t.tr
		// Both passes submit the same specs, so every job computed by
		// both must have the same result.
		for key, rec := range t.computed {
			if u, ok := p.computed[key]; ok && !reflect.DeepEqual(u.Result, rec.Result) {
				t.failed++
				t.fail("job %s: traced result differs from the untraced one", key)
			}
		}
	} else {
		o.metrics = map[string]float64{
			"setup_s":         median(p.setups) * p.scale(),
			"norm_jobs_per_s": ratio(p.jobsPerCPUS(), p.scale()),
		}
	}
	for _, q := range passes {
		o.attempted += q.attempt
		o.failed += q.failed
		for _, f := range q.failures {
			o.fail(f)
		}
	}
	o.report("jobs %d, failed %d, batches %d of %d jobs, %d clients, %d workers",
		p.attempt, p.failed, len(p.batches), batchJobs, sweepClients, sweepWorkers)
	o.report("reference %.6g s CPU (median of %d)", median(p.refs), len(p.refs))
	o.report("setup_s %.6g s normalised, %.6g s CPU, %.6g s wall (medians of %d restarts)",
		median(p.setups)*p.scale(), median(p.setups), median(p.setupsWall), len(p.setups))
	o.report("norm_jobs_per_s %.6g 1/s, %.6g 1/s CPU over %.3g CPU-s",
		ratio(p.jobsPerCPUS(), p.scale()), p.jobsPerCPUS(), p.loadCPU.Seconds())
	o.report("jobs_per_s %.6g 1/s over %.3g s", ratio(float64(p.jobsDone), secs(p.loadNS)), secs(p.loadNS))
	for _, pc := range []int{50, 90, 99} {
		if v, ok := percentile(p.batches, pc); ok {
			o.report("batch_p%d_s %.6g s (of %d batches)", pc, v, len(p.batches))
		}
	}
	return o, nil
}

// sweepLayers computes the sweep layer's metrics from a traced pass;
// the simulator layers read 0, since the service runs its jobs out of
// the benchmark's sight.
func sweepLayers(p *sweepPass) map[string]float64 {
	m := zeroLayers()
	var retries int
	for _, rec := range p.computed {
		retries += rec.Attempts - 1
	}
	submitted := float64(len(p.batches) * batchJobs)
	m["sweep.replay_s"] = median(p.replays)
	m["sweep.submit_s"] = median(p.submits)
	m["sweep.run_s_per_job"] = median(p.runs)
	var run float64
	for _, r := range p.runs {
		run += r
	}
	m["sweep.service_share"] = 1 - ratio(run, secs(p.loadNS)*sweepWorkers)
	m["sweep.cache_hit_ratio"] = ratio(float64(p.hits), submitted)
	m["sweep.journal_bytes_per_job"] = ratio(float64(p.jAfter-p.jBefore), float64(p.jobsDone))
	m["sweep.retries"] = float64(retries)
	m["sweep.respawns"] = float64(p.respawns)
	m["sweep.shed"] = float64(p.shed)
	m["sweep.http_non2xx"] = float64(p.non2xx)
	return m
}
