package sweep

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/traffic"
)

// instantRunner succeeds immediately with a distinguishable result.
func instantRunner(ctx context.Context, spec JobSpec) (traffic.Result, error) {
	return traffic.Result{Offered: 1, Delivered: 1}, nil
}

func waitDone(t *testing.T, s *Service, id string) BatchSnapshot {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	snap, err := s.WaitBatch(ctx, id)
	if err != nil {
		t.Fatalf("WaitBatch(%s): %v (snapshot %+v)", id, err, snap)
	}
	return snap
}

func drain(t *testing.T, s *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

func TestServiceRunsBatchToDone(t *testing.T) {
	s, err := NewService(Config{Workers: 2, Runner: instantRunner})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	snap, err := s.Submit("", []JobSpec{testSpec(0.02, 1), testSpec(0.05, 2)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final := waitDone(t, s, snap.ID)
	for _, rec := range final.Jobs {
		if rec.Status != StatusDone || rec.Result == nil || rec.Attempts != 1 {
			t.Errorf("job %s: %+v, want done with result in one attempt", rec.Key, rec)
		}
	}
}

func TestPanicBecomesFailedRecordWithStack(t *testing.T) {
	// A panicking model must end as a failed record carrying the stack
	// — and the worker that caught it keeps serving other jobs.
	s, err := NewService(Config{
		Workers: 1,
		Runner: func(ctx context.Context, spec JobSpec) (traffic.Result, error) {
			if spec.Seed == 666 {
				panic("model corrupted its flit buffer")
			}
			return instantRunner(ctx, spec)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	snap, err := s.Submit("", []JobSpec{testSpec(0.02, 666), testSpec(0.02, 2)})
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, s, snap.ID)
	bad, good := final.Jobs[0], final.Jobs[1]
	if bad.Status != StatusFailed {
		t.Fatalf("panicking job = %s, want failed", bad.Status)
	}
	if !strings.Contains(bad.Error, "model corrupted its flit buffer") {
		t.Errorf("failed record lost the panic value: %q", bad.Error)
	}
	if !strings.Contains(bad.Stack, "sweep") {
		t.Errorf("failed record carries no stack: %q", bad.Stack)
	}
	if good.Status != StatusDone {
		t.Errorf("job after the panic = %s, want done (worker survived)", good.Status)
	}
	if st := s.Stats(); st.Respawns != 0 {
		t.Errorf("respawns = %d, want 0 (panic was recovered in place)", st.Respawns)
	}
}

func TestHungJobHitsWallClockDeadline(t *testing.T) {
	s, err := NewService(Config{
		Workers:        1,
		DefaultMaxWall: 30 * time.Millisecond,
		Runner: func(ctx context.Context, spec JobSpec) (traffic.Result, error) {
			<-ctx.Done() // a hung model: only the deadline frees the worker
			return traffic.Result{}, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	snap, err := s.Submit("", []JobSpec{testSpec(0.02, 1)})
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, s, snap.ID)
	if final.Jobs[0].Status != StatusTimeout {
		t.Fatalf("hung job = %+v, want timeout", final.Jobs[0])
	}
}

func TestCycleBudgetBecomesTimeout(t *testing.T) {
	// Real simulator, absurdly small cycle budget: the kernel's cancel
	// hook fires and the service records a timeout, not a hang.
	s, err := NewService(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	spec := testSpec(0.05, 1)
	spec.Measure = 1_000_000
	spec.MaxCycles = 2000
	snap, err := s.Submit("", []JobSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, s, snap.ID)
	rec := final.Jobs[0]
	if rec.Status != StatusTimeout || !strings.Contains(rec.Error, "cycle budget") {
		t.Fatalf("over-budget job = %+v, want cycle-budget timeout", rec)
	}
}

func TestTransientErrorsRetryWithBackoffThenSucceed(t *testing.T) {
	var calls atomic.Int32
	var mu sync.Mutex
	var sleeps []time.Duration
	s, err := NewService(Config{
		Workers:           1,
		DefaultMaxRetries: 3,
		BackoffBase:       100 * time.Millisecond,
		BackoffMax:        time.Second,
		Sleep: func(ctx context.Context, d time.Duration) {
			mu.Lock()
			sleeps = append(sleeps, d)
			mu.Unlock()
		},
		Runner: func(ctx context.Context, spec JobSpec) (traffic.Result, error) {
			if calls.Add(1) <= 2 {
				return traffic.Result{}, Transient(errors.New("spurious allocator hiccup"))
			}
			return instantRunner(ctx, spec)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	snap, err := s.Submit("", []JobSpec{testSpec(0.02, 1)})
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, s, snap.ID)
	rec := final.Jobs[0]
	if rec.Status != StatusDone || rec.Attempts != 3 {
		t.Fatalf("flaky job = %+v, want done in 3 attempts", rec)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sleeps) != 2 {
		t.Fatalf("backoff slept %d times, want 2 (%v)", len(sleeps), sleeps)
	}
	for i, d := range sleeps {
		// attempt n backs off in [base<<(n-1)/2, base<<(n-1)*1.5]
		base := 100 * time.Millisecond << i
		if d < base/2 || d > base+base/2 {
			t.Errorf("backoff %d = %v, want within ±50%% of %v", i, d, base)
		}
	}
}

func TestTransientErrorsExhaustRetriesThenFail(t *testing.T) {
	var calls atomic.Int32
	s, err := NewService(Config{
		Workers: 1,
		Sleep:   func(context.Context, time.Duration) {},
		Runner: func(ctx context.Context, spec JobSpec) (traffic.Result, error) {
			calls.Add(1)
			return traffic.Result{}, Transient(errors.New("never better"))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	spec := testSpec(0.02, 1)
	spec.MaxRetries = 1
	snap, err := s.Submit("", []JobSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, s, snap.ID)
	rec := final.Jobs[0]
	if rec.Status != StatusFailed || rec.Attempts != 2 {
		t.Fatalf("exhausted job = %+v, want failed after 2 attempts", rec)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("runner called %d times, want 2", got)
	}
	// MaxRetries -1 disables retries entirely.
	calls.Store(0)
	spec.MaxRetries = -1
	spec.Seed = 2
	snap2, err := s.Submit("", []JobSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	final2 := waitDone(t, s, snap2.ID)
	if final2.Jobs[0].Attempts != 1 || calls.Load() != 1 {
		t.Fatalf("no-retry job attempted %d times (runner %d), want 1", final2.Jobs[0].Attempts, calls.Load())
	}
}

func TestKilledWorkerIsRespawnedAndJobRetried(t *testing.T) {
	// runtime.Goexit kills the worker goroutine outright — no panic to
	// recover. The pool must respawn a replacement and the in-flight
	// job must still reach a terminal state.
	var calls atomic.Int32
	s, err := NewService(Config{
		Workers: 1,
		Sleep:   func(context.Context, time.Duration) {},
		Runner: func(ctx context.Context, spec JobSpec) (traffic.Result, error) {
			if calls.Add(1) == 1 {
				runtime.Goexit()
			}
			return instantRunner(ctx, spec)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	snap, err := s.Submit("", []JobSpec{testSpec(0.02, 1)})
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, s, snap.ID)
	rec := final.Jobs[0]
	if rec.Status != StatusDone || rec.Attempts != 2 {
		t.Fatalf("job of killed worker = %+v, want done on attempt 2", rec)
	}
	if st := s.Stats(); st.Respawns != 1 {
		t.Errorf("respawns = %d, want 1", st.Respawns)
	}
}

func TestKilledWorkerExhaustsRetriesToFailure(t *testing.T) {
	s, err := NewService(Config{
		Workers: 1,
		Sleep:   func(context.Context, time.Duration) {},
		Runner: func(ctx context.Context, spec JobSpec) (traffic.Result, error) {
			runtime.Goexit() // every attempt kills its worker
			return traffic.Result{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	spec := testSpec(0.02, 1)
	spec.MaxRetries = 1
	snap, err := s.Submit("", []JobSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, s, snap.ID)
	rec := final.Jobs[0]
	if rec.Status != StatusFailed || !strings.Contains(rec.Error, "worker killed") {
		t.Fatalf("job = %+v, want failed with worker-killed error", rec)
	}
	if st := s.Stats(); st.Respawns != 2 {
		t.Errorf("respawns = %d, want 2", st.Respawns)
	}
}

func TestDedupeAcrossBatches(t *testing.T) {
	var calls atomic.Int32
	s, err := NewService(Config{
		Workers: 1,
		Runner: func(ctx context.Context, spec JobSpec) (traffic.Result, error) {
			calls.Add(1)
			return instantRunner(ctx, spec)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	spec := testSpec(0.02, 1)
	snap1, err := s.Submit("", []JobSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, snap1.ID)

	// Same config in a new batch (even with different robustness knobs
	// and execution strategy): served from cache, not recomputed.
	again := spec
	again.MaxRetries = 5
	again.Kernel = "dense"
	snap2, err := s.Submit("", []JobSpec{again, testSpec(0.04, 2)})
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, s, snap2.ID)
	if final.Jobs[0].Key != snap1.Jobs[0].Key {
		t.Fatalf("identical configs got different keys: %s vs %s", final.Jobs[0].Key, snap1.Jobs[0].Key)
	}
	if !final.Jobs[0].Cached || final.Jobs[0].Status != StatusDone {
		t.Errorf("dedup hit = %+v, want cached done record", final.Jobs[0])
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("runner ran %d times for 3 submissions of 2 distinct configs, want 2", got)
	}
	if st := s.Stats(); st.CacheHits != 1 {
		t.Errorf("cacheHits = %d, want 1", st.CacheHits)
	}
}

func TestBackpressureRejectsWithRetryAfter(t *testing.T) {
	started := make(chan struct{}, 2)
	gate := make(chan struct{})
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

	// Job 1 occupies the worker...
	if _, err := s.Submit("busy", []JobSpec{testSpec(0.02, 1)}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started
	// ...job 2 the single queue slot.
	if _, err := s.Submit("busy2", []JobSpec{testSpec(0.02, 2)}); err != nil {
		t.Fatalf("Submit 2: %v", err)
	}
	// Poll the batches so they are active: shedding must not touch them.
	if _, ok := s.BatchStatus("busy2"); !ok {
		t.Fatal("batch lost")
	}
	_, err = s.Submit("over", []JobSpec{testSpec(0.02, 3)})
	var be *BacklogError
	if !errors.As(err, &be) {
		t.Fatalf("over-capacity Submit = %v, want BacklogError", err)
	}
	if be.RetryAfter < time.Second {
		t.Errorf("RetryAfter = %v, want >= 1s", be.RetryAfter)
	}
	if _, ok := s.BatchStatus("over"); ok {
		t.Error("rejected batch was registered")
	}
}

func TestQueuePressureShedsIdleBatch(t *testing.T) {
	started := make(chan struct{}, 2)
	gate := make(chan struct{})
	now := time.Unix(1000, 0)
	var nowMu sync.Mutex
	clock := func() time.Time { nowMu.Lock(); defer nowMu.Unlock(); return now }
	s, err := NewService(Config{
		Workers:       1,
		QueueCap:      2,
		ShedIdleAfter: time.Minute,
		Now:           clock,
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

	snap, err := s.Submit("idle", []JobSpec{testSpec(0.02, 1), testSpec(0.02, 2)})
	if err != nil {
		t.Fatal(err)
	}
	queuedKey := snap.Jobs[1].Key
	<-started // job 1 in flight; only job 2 still occupies the queue

	// The batch goes unpolled past the idle threshold...
	nowMu.Lock()
	now = now.Add(2 * time.Minute)
	nowMu.Unlock()

	// ...so a new submission under queue pressure sheds its queued job.
	snap2, err := s.Submit("fresh", []JobSpec{testSpec(0.02, 3), testSpec(0.02, 4)})
	if err != nil {
		t.Fatalf("Submit after idle = %v, want shed to make room", err)
	}
	rec, ok := s.Job(queuedKey)
	if !ok || rec.Status != StatusShed {
		t.Fatalf("idle batch's queued job = %+v, want shed", rec)
	}
	if st := s.Stats(); st.Shed != 1 {
		t.Errorf("shed = %d, want 1", st.Shed)
	}
	// The shed record is terminal, so the idle batch still completes.
	_ = snap2
}

func TestDrainFinishesInFlightAndKeepsQueuedPending(t *testing.T) {
	dir := t.TempDir()
	started := make(chan struct{}, 1)
	gate := make(chan struct{})
	s, err := NewService(Config{
		Workers:     1,
		JournalPath: filepath.Join(dir, "j"),
		Runner: func(ctx context.Context, spec JobSpec) (traffic.Result, error) {
			started <- struct{}{}
			<-gate
			return instantRunner(ctx, spec)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("b1", []JobSpec{testSpec(0.02, 1), testSpec(0.02, 2)}); err != nil {
		t.Fatal(err)
	}
	<-started // job 1 is in flight, job 2 queued

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	// Once the drain flag is visible, submissions are refused.
	for !s.Stats().Draining {
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit("late", []JobSpec{testSpec(0.02, 9)}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit during drain = %v, want ErrDraining", err)
	}
	close(gate) // let the in-flight job finish
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// Restart on the same journal: the finished job is served from the
	// journal, the queued one resumes and completes.
	var calls atomic.Int32
	var ranSeeds sync.Map
	s2, err := NewService(Config{
		Workers:     1,
		JournalPath: filepath.Join(dir, "j"),
		Runner: func(ctx context.Context, spec JobSpec) (traffic.Result, error) {
			calls.Add(1)
			ranSeeds.Store(spec.Seed, true)
			return instantRunner(ctx, spec)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s2)
	final := waitDone(t, s2, "b1")
	if !final.Done {
		t.Fatalf("resumed batch not done: %+v", final)
	}
	for i, rec := range final.Jobs {
		if rec.Status != StatusDone {
			t.Errorf("job %d after resume = %s, want done", i, rec.Status)
		}
	}
	if !final.Jobs[0].Cached {
		t.Error("finished job not marked cached after restart")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("restart recomputed: runner ran %d times, want 1 (only the pending job)", got)
	}
	if _, recomputed := ranSeeds.Load(uint64(1)); recomputed {
		t.Error("restart re-ran the journaled done job")
	}
}

func TestForcedDrainReturnsInFlightJobToPending(t *testing.T) {
	// A drain whose deadline expires force-cancels the in-flight job;
	// it must come back as pending (resumed on restart), not failed.
	dir := t.TempDir()
	started := make(chan struct{}, 1)
	s, err := NewService(Config{
		Workers:     1,
		JournalPath: filepath.Join(dir, "j"),
		Runner: func(ctx context.Context, spec JobSpec) (traffic.Result, error) {
			started <- struct{}{}
			<-ctx.Done() // hung job: survives graceful drain, dies on force
			return traffic.Result{}, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("b1", []JobSpec{testSpec(0.02, 1)}); err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("forced Drain: %v", err)
	}

	var calls atomic.Int32
	s2, err := NewService(Config{
		Workers:     1,
		JournalPath: filepath.Join(dir, "j"),
		Runner: func(ctx context.Context, spec JobSpec) (traffic.Result, error) {
			calls.Add(1)
			return instantRunner(ctx, spec)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s2)
	final := waitDone(t, s2, "b1")
	if final.Jobs[0].Status != StatusDone || calls.Load() != 1 {
		t.Fatalf("force-stopped job after restart = %+v (runner %d), want recomputed done",
			final.Jobs[0], calls.Load())
	}
}

func TestRestartAfterTornJournalWrite(t *testing.T) {
	// Crash simulation at the journal level: finish a batch, then
	// corrupt the journal tail as a mid-write crash would, and restart.
	// The torn record's job must be recomputed; intact ones must not.
	dir := t.TempDir()
	path := filepath.Join(dir, "j")
	s, err := NewService(Config{Workers: 1, JournalPath: path, Runner: instantRunner})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s.Submit("b1", []JobSpec{testSpec(0.02, 1), testSpec(0.02, 2)})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, snap.ID)
	drain(t, s)

	// Tear the final record: chop the last 5 bytes of the file.
	truncateTail(t, path, 5)

	var calls atomic.Int32
	s2, err := NewService(Config{
		Workers:     1,
		JournalPath: path,
		Runner: func(ctx context.Context, spec JobSpec) (traffic.Result, error) {
			calls.Add(1)
			return instantRunner(ctx, spec)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s2)
	if st := s2.Stats(); st.JournalDropped == 0 {
		t.Error("torn tail not reported in stats")
	}
	final := waitDone(t, s2, "b1")
	for i, rec := range final.Jobs {
		if rec.Status != StatusDone {
			t.Errorf("job %d = %s, want done", i, rec.Status)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("recomputed %d jobs, want exactly the torn one (1)", got)
	}
}

// TestReplayOldJournalWithRemovedKernel: a journal written while the
// sharded and parallel kernels existed may hold a pending job that
// names one. Replay must not panic, the journal's done record must
// still be served from the cache, and the pending job must end failed
// with an error that names its kernel.
func TestReplayOldJournalWithRemovedKernel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	jn, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	done := testSpec(0.05, 1)
	pending := testSpec(0.03, 2)
	pending.Kernel = "parallel2"
	res := traffic.Result{Offered: 0.05, Delivered: 0.05, MeasuredPackets: 9}
	if err := jn.AppendBatch(BatchEntry{ID: "old", Specs: []JobSpec{done, pending}}); err != nil {
		t.Fatal(err)
	}
	if err := jn.AppendJob(JobRecord{Key: done.Key(), Spec: done, Status: StatusDone, Attempts: 1, Result: &res}); err != nil {
		t.Fatal(err)
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}

	// The real runner: the pending job meets the kernel parser.
	s, err := NewService(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	final := waitDone(t, s, "old")
	if len(final.Jobs) != 2 {
		t.Fatalf("replayed batch has %d jobs, want 2", len(final.Jobs))
	}
	if got := final.Jobs[0]; got.Status != StatusDone || !got.Cached || got.Result == nil || *got.Result != res {
		t.Errorf("done record = %+v, want the journal's result served from the cache", got)
	}
	if got := final.Jobs[1]; got.Status != StatusFailed || !strings.Contains(got.Error, "parallel2") {
		t.Errorf("pending job = %+v, want failed with an error naming kernel parallel2", got)
	}
	if st := s.Stats(); st.Computed != 0 {
		t.Errorf("computed = %d, want 0: the done record is cached and the other job fails", st.Computed)
	}
}

func TestSubmitValidation(t *testing.T) {
	s, err := NewService(Config{Workers: 1, Runner: instantRunner})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	bad := testSpec(-0.5, 1)
	_, err = s.Submit("", []JobSpec{testSpec(0.02, 1), bad})
	var ve *ValidationError
	if !errors.As(err, &ve) || ve.Index != 1 {
		t.Fatalf("Submit = %v, want ValidationError at index 1", err)
	}
	if _, err := s.Submit("", nil); err == nil {
		t.Error("empty batch accepted")
	}
	// A rejected batch leaves no partial state behind.
	if st := s.Stats(); st.Jobs != 0 || st.QueueLen != 0 {
		t.Errorf("rejected submissions leaked state: %+v", st)
	}
}

func TestBatchIdempotencyAndMismatch(t *testing.T) {
	s, err := NewService(Config{Workers: 1, Runner: instantRunner})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	specs := []JobSpec{testSpec(0.02, 1)}
	if _, err := s.Submit("b1", specs); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("b1", specs); err != nil {
		t.Errorf("idempotent resubmit rejected: %v", err)
	}
	if _, err := s.Submit("b1", []JobSpec{testSpec(0.09, 9)}); !errors.Is(err, ErrBatchMismatch) {
		t.Errorf("conflicting resubmit = %v, want ErrBatchMismatch", err)
	}
}

// TestConcurrentClocksMatchSerial is the concurrency-correctness
// anchor: N simulations on independent Clocks racing in the pool
// produce results bit-identical to the same jobs run serially. Run
// with -race this also proves the clocks share no state.
func TestConcurrentClocksMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations; skipped in -short")
	}
	specs := make([]JobSpec, 8)
	for i := range specs {
		specs[i] = testSpec(0.01+0.01*float64(i%4), uint64(100+i))
	}
	specs[5].Kernel = "nowarp" // an oracle-kernel job among the default ones

	serial := make(map[string]traffic.Result, len(specs))
	for _, sp := range specs {
		res, err := sp.TrafficJob.Run(context.Background(), 0)
		if err != nil {
			t.Fatalf("serial run: %v", err)
		}
		serial[sp.Key()] = res
	}

	s, err := NewService(Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	snap, err := s.Submit("", specs)
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, s, snap.ID)
	for _, rec := range final.Jobs {
		if rec.Status != StatusDone {
			t.Fatalf("job %s: %+v", rec.Key, rec)
		}
		if *rec.Result != serial[rec.Key] {
			t.Errorf("job %s diverged under concurrency:\n got %+v\nwant %+v",
				rec.Key, *rec.Result, serial[rec.Key])
		}
	}
}

func truncateTail(t *testing.T, path string, n int64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-n); err != nil {
		t.Fatal(err)
	}
}
