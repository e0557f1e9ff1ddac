package sweep

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/traffic"
)

// Config parameterizes a Service. Zero values select the documented
// defaults.
type Config struct {
	// Workers is the number of concurrent job runners (default 4).
	Workers int
	// QueueCap bounds the number of queued (not yet running) jobs. A
	// submission whose new jobs would push the backlog past the cap gets
	// a BacklogError; a single batch larger than the cap is never
	// accepted (default 256).
	QueueCap int
	// JournalPath is the crash-safe record store. Empty runs the
	// service in-memory: no durability, no restart resume.
	JournalPath string

	// DefaultMaxWall bounds each job's wall-clock time when the spec
	// doesn't (default 2m).
	DefaultMaxWall time.Duration
	// DefaultMaxCycles bounds each job's simulated time when the spec
	// doesn't (default 50M cycles).
	DefaultMaxCycles uint64

	// Runner executes one job. Nil selects the real simulator
	// (spec.TrafficJob.Run); tests inject failures here. The spec
	// arrives with MaxCycles already resolved against the default.
	Runner func(ctx context.Context, spec JobSpec) (traffic.Result, error)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	if c.DefaultMaxWall <= 0 {
		c.DefaultMaxWall = 2 * time.Minute
	}
	if c.DefaultMaxCycles == 0 {
		c.DefaultMaxCycles = 50_000_000
	}
	if c.Runner == nil {
		c.Runner = func(ctx context.Context, spec JobSpec) (traffic.Result, error) {
			return spec.TrafficJob.Run(ctx, spec.MaxCycles)
		}
	}
	return c
}

// batch is one accepted submission: the keys of the jobs it names.
type batch struct {
	id   string
	keys []string
}

// Stats is a point-in-time snapshot of service health counters.
type Stats struct {
	Workers   int `json:"workers"`
	QueueLen  int `json:"queueLen"`
	InFlight  int `json:"inFlight"`
	Jobs      int `json:"jobs"`
	Batches   int `json:"batches"`
	Computed  int `json:"computed"`
	CacheHits int `json:"cacheHits"`
	// Shed reads 0: the service no longer sheds queued jobs.
	//
	// Deprecated: kept while perfbench reads it.
	Shed int `json:"shed"`
	// Respawns reads 0: the service no longer respawns workers.
	//
	// Deprecated: kept while perfbench reads it.
	Respawns int  `json:"respawns"`
	Draining bool `json:"draining"`
	// JournalDropped is how many bytes of corrupt journal tail were
	// discarded at startup (0 for a clean journal).
	JournalDropped int64 `json:"journalDropped"`
}

// BatchSnapshot is the client-visible state of a batch.
type BatchSnapshot struct {
	ID   string      `json:"id"`
	Jobs []JobRecord `json:"jobs"`
	// Done is true once every job in the batch is terminal.
	Done bool `json:"done"`
}

// Service is the sweep job service: a bounded queue feeding a
// fixed-size worker pool, with journal-backed dedupe and resume.
type Service struct {
	cfg     Config
	journal *Journal // nil when running in-memory

	// mu guards the fields below and every JobRecord in jobs.
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*JobRecord
	jobs     map[string]*JobRecord
	batches  map[string]*batch
	draining bool
	closed   bool
	inFlight int
	avgDur   time.Duration // EWMA of job wall time, for Retry-After

	computed  int
	cacheHits int
	dropped   int64

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
}

// NewService opens (and replays) the journal, requeues every journaled
// job that never reached a terminal record, and starts the worker pool.
func NewService(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:     cfg,
		jobs:    make(map[string]*JobRecord),
		batches: make(map[string]*batch),
	}
	s.cond = sync.NewCond(&s.mu)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())

	if cfg.JournalPath != "" {
		jn, err := OpenJournal(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		s.journal = jn
		s.dropped = jn.Dropped
		s.replay(jn)
	}

	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// replay rebuilds in-memory state from a journal: terminal job records
// first (later records win: a failed job may have been resubmitted and
// finished), then batches, requeuing every referenced job without a
// terminal record. A spec that Submit would now reject, which a journal
// written before its check may hold, ends failed with the validation
// error instead, never reaching the Runner. Runs before the workers
// start, so no locking.
func (s *Service) replay(jn *Journal) {
	for _, rec := range jn.Jobs {
		switch {
		case rec.Status == StatusDone:
			rec.Cached = true // anything served from here on is from the journal
		case !rec.Status.Terminal():
			// "shed", journaled by services that dropped queued jobs
			// from a full queue: the job never ran, so forget it and
			// let the batches that name it requeue it.
			delete(s.jobs, rec.Key)
			continue
		}
		s.jobs[rec.Key] = &rec
	}
	for _, be := range jn.Batches {
		b := &batch{id: be.ID}
		for i := range be.Specs {
			key := be.Specs[i].Key()
			b.keys = append(b.keys, key)
			if _, ok := s.jobs[key]; !ok {
				j := &JobRecord{Key: key, Spec: be.Specs[i], Status: StatusQueued}
				s.jobs[key] = j
				if err := j.Spec.Validate(); err != nil {
					j.Status, j.Error = StatusFailed, err.Error()
				} else {
					s.queue = append(s.queue, j)
				}
			}
		}
		s.batches[b.id] = b
	}
}

// worker is one pool goroutine: it runs queued jobs until the service
// drains.
func (s *Service) worker() {
	defer s.wg.Done()
	for j := s.next(); j != nil; j = s.next() {
		s.runJob(j)
	}
}

// next blocks until a job is available and marks it running, returning
// nil when the service is draining.
func (s *Service) next() *JobRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.draining {
			return nil
		}
		if len(s.queue) > 0 {
			j := s.queue[0]
			s.queue = s.queue[1:]
			j.Status = StatusRunning
			s.inFlight++
			return j
		}
		s.cond.Wait()
	}
}

// runJob attempts a job once and records how it ended: done, failed or
// timeout, or queued again if the service is force-stopped mid-run.
// A job's result is a function of its spec, so a second attempt could
// only repeat the first.
func (s *Service) runJob(j *JobRecord) {
	start := time.Now()
	res, err := s.attempt(j)

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case err == nil:
		j.Status = StatusDone
		j.Result = &res
		s.computed++

	case s.baseCtx.Err() != nil && errors.Is(err, context.Canceled):
		// Forced stop (drain deadline expired): the attempt was cut
		// short through no fault of the job. Put it back in queued
		// state — unjournaled, so a restart resumes it.
		j.Status = StatusQueued
		s.inFlight--
		return

	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, traffic.ErrCycleBudget):
		j.Status = StatusTimeout
		j.Error = err.Error()

	default:
		j.Status = StatusFailed
		j.Error = err.Error()
		var pe *PanicError
		if errors.As(err, &pe) {
			j.Stack = pe.Stack
		}
	}
	s.finishLocked(j, time.Since(start))
}

// attempt runs the Runner once under the per-job wall-clock deadline,
// converting a panic into a PanicError instead of letting it unwind
// the worker.
func (s *Service) attempt(j *JobRecord) (res traffic.Result, err error) {
	s.mu.Lock()
	j.Attempts++
	spec := j.Spec
	s.mu.Unlock()

	if spec.MaxCycles == 0 {
		spec.MaxCycles = s.cfg.DefaultMaxCycles
	}
	wall := s.cfg.DefaultMaxWall
	if spec.MaxWallMS > 0 {
		wall = time.Duration(spec.MaxWallMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, wall)
	defer cancel()

	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: fmt.Sprint(r), Stack: string(debug.Stack())}
		}
	}()
	return s.cfg.Runner(ctx, spec)
}

// finishLocked records a terminal transition: journal it, update the
// latency estimate, wake pollers.
func (s *Service) finishLocked(j *JobRecord, dur time.Duration) {
	s.inFlight--
	if s.avgDur == 0 {
		s.avgDur = dur
	} else {
		s.avgDur = (s.avgDur*4 + dur) / 5
	}
	if s.journal != nil && !s.closed {
		if err := s.journal.AppendJob(*j); err != nil {
			// The record stays served from memory; durability is lost
			// for this one record but the service keeps running.
			j.Error = appendErr(j.Error, fmt.Sprintf("journal append failed: %v", err))
		}
	}
	s.cond.Broadcast()
}

func appendErr(base, extra string) string {
	if base == "" {
		return extra
	}
	return base + "; " + extra
}

// Submit accepts a batch of job specs. An empty batchID gets a fresh
// one; resubmitting an existing ID with the same jobs is idempotent
// (it returns the current snapshot), with different jobs it is
// ErrBatchMismatch. Errors: ValidationError (a spec is malformed),
// BacklogError (queue full), ErrDraining.
func (s *Service) Submit(batchID string, specs []JobSpec) (BatchSnapshot, error) {
	if len(specs) == 0 {
		return BatchSnapshot{}, &ValidationError{Index: 0, Err: errors.New("empty batch")}
	}
	keys := make([]string, len(specs))
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			return BatchSnapshot{}, &ValidationError{Index: i, Err: err}
		}
		keys[i] = specs[i].Key()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return BatchSnapshot{}, ErrDraining
	}
	if batchID == "" {
		batchID = newBatchID()
	}
	if b, ok := s.batches[batchID]; ok {
		if !equalKeys(b.keys, keys) {
			return BatchSnapshot{}, ErrBatchMismatch
		}
		return s.snapshotLocked(b), nil
	}

	// How many queue slots does this batch need? Only jobs that are
	// new (or terminal-but-not-done, which re-run) occupy one.
	need := 0
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		if seen[k] {
			continue
		}
		seen[k] = true
		j, ok := s.jobs[k]
		if !ok || (j.Status.Terminal() && j.Status != StatusDone) {
			need++
		}
	}
	if len(s.queue)+need > s.cfg.QueueCap {
		return BatchSnapshot{}, &BacklogError{RetryAfter: s.retryAfterLocked(need)}
	}

	// Journal the acceptance before exposing any state: a batch the
	// client saw accepted must survive a crash.
	if s.journal != nil {
		if err := s.journal.AppendBatch(BatchEntry{ID: batchID, Specs: specs}); err != nil {
			return BatchSnapshot{}, err
		}
	}

	b := &batch{id: batchID, keys: keys}
	s.batches[batchID] = b
	for i, k := range keys {
		j, ok := s.jobs[k]
		switch {
		case !ok:
			j = &JobRecord{Key: k, Spec: specs[i], Status: StatusQueued}
			s.jobs[k] = j
			s.queue = append(s.queue, j)
		case j.Status == StatusDone:
			s.cacheHits++
			j.Cached = true
		case j.Status.Terminal():
			// failed or timeout: a fresh submission asks again.
			*j = JobRecord{Key: k, Spec: specs[i], Status: StatusQueued}
			s.queue = append(s.queue, j)
		}
	}
	s.cond.Broadcast()
	return s.snapshotLocked(b), nil
}

// retryAfterLocked estimates when a rejected submitter should try
// again: the queue's expected drain time for `need` slots, clamped to
// [1s, 60s].
func (s *Service) retryAfterLocked(need int) time.Duration {
	avg := s.avgDur
	if avg <= 0 {
		avg = time.Second
	}
	pending := len(s.queue) + s.inFlight + need
	d := avg * time.Duration((pending+s.cfg.Workers-1)/s.cfg.Workers)
	if d < time.Second {
		d = time.Second
	}
	if d > time.Minute {
		d = time.Minute
	}
	return d
}

func (s *Service) snapshotLocked(b *batch) BatchSnapshot {
	snap := BatchSnapshot{ID: b.id, Done: true}
	for _, k := range b.keys {
		rec := *s.jobs[k]
		if !rec.Status.Terminal() {
			snap.Done = false
		}
		snap.Jobs = append(snap.Jobs, rec)
	}
	return snap
}

// BatchStatus returns the batch's snapshot.
func (s *Service) BatchStatus(id string) (BatchSnapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.batches[id]
	if !ok {
		return BatchSnapshot{}, false
	}
	return s.snapshotLocked(b), true
}

// WaitBatch blocks until every job in the batch is terminal or ctx
// expires, returning the final snapshot either way.
func (s *Service) WaitBatch(ctx context.Context, id string) (BatchSnapshot, error) {
	stop := context.AfterFunc(ctx, func() {
		// Under the lock, so the wakeup cannot land between the loop's
		// ctx.Err check and its Wait, where no waiter would see it.
		s.mu.Lock()
		defer s.mu.Unlock()
		s.cond.Broadcast()
	})
	defer stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		b, ok := s.batches[id]
		if !ok {
			return BatchSnapshot{}, fmt.Errorf("sweep: unknown batch %q", id)
		}
		snap := s.snapshotLocked(b)
		if snap.Done {
			return snap, nil
		}
		if err := ctx.Err(); err != nil {
			return snap, err
		}
		if s.draining {
			return snap, ErrDraining
		}
		s.cond.Wait()
	}
}

// Job returns the record for one job key.
func (s *Service) Job(key string) (JobRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[key]
	if !ok {
		return JobRecord{}, false
	}
	return *j, true
}

// Stats returns current health counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Workers:        s.cfg.Workers,
		QueueLen:       len(s.queue),
		InFlight:       s.inFlight,
		Jobs:           len(s.jobs),
		Batches:        len(s.batches),
		Computed:       s.computed,
		CacheHits:      s.cacheHits,
		Draining:       s.draining,
		JournalDropped: s.dropped,
	}
}

// Drain shuts the service down gracefully: stop dispatching, let
// in-flight jobs finish, then close the journal. Queued jobs stay
// journaled as pending — a restart resumes them. If ctx expires first,
// in-flight jobs are force-cancelled and also return to the pending
// pool rather than being recorded as failures.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		s.baseCancel()
		<-done
	}
	s.baseCancel()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.journal != nil {
		return s.journal.Close()
	}
	return nil
}

func newBatchID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("sweep: batch id entropy: %v", err))
	}
	return "b-" + hex.EncodeToString(b[:])
}

func equalKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
