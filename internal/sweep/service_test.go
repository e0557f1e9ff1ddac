package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
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

	// Same config in a new batch (even with a different deadline and
	// execution strategy): served from cache, not recomputed.
	again := spec
	again.MaxWallMS = 5000
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

// TestFailedJobRunsOnceUntilResubmitted: a job's result is a function
// of its spec, so a Runner error ends it failed on its first attempt
// even when a second call would succeed. Only a fresh submission of the
// same spec runs it again.
func TestFailedJobRunsOnceUntilResubmitted(t *testing.T) {
	var calls atomic.Int32
	s, err := NewService(Config{
		Workers: 1,
		Runner: func(ctx context.Context, spec JobSpec) (traffic.Result, error) {
			if calls.Add(1) == 1 {
				return traffic.Result{}, errors.New("allocator hiccup")
			}
			return instantRunner(ctx, spec)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	spec := testSpec(0.02, 1)
	snap, err := s.Submit("first", []JobSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	rec := waitDone(t, s, snap.ID).Jobs[0]
	if rec.Status != StatusFailed || rec.Attempts != 1 || !strings.Contains(rec.Error, "allocator hiccup") {
		t.Fatalf("erroring job = %+v, want failed in 1 attempt with the runner's error", rec)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("runner ran %d times for one failed job, want 1", got)
	}

	snap, err = s.Submit("again", []JobSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	rec = waitDone(t, s, snap.ID).Jobs[0]
	if rec.Status != StatusDone || rec.Cached || rec.Attempts != 1 || rec.Error != "" {
		t.Fatalf("resubmitted job = %+v, want run afresh to done in 1 attempt", rec)
	}
	if st := s.Stats(); calls.Load() != 2 || st.Computed != 1 || st.Respawns != 0 {
		t.Errorf("runner ran %d times, stats %+v, want 2 runs, 1 computed, 0 respawns", calls.Load(), st)
	}
}

// TestFullQueueKeepsQueuedJobsOfIdleBatch: a submission that finds the
// queue full is rejected, and the queued job of a batch nobody polls
// stays queued and runs; accepted work is never dropped to make room.
func TestFullQueueKeepsQueuedJobsOfIdleBatch(t *testing.T) {
	started := make(chan struct{}, 2)
	gate := make(chan struct{})
	s, err := NewService(Config{
		Workers:  1,
		QueueCap: 2,
		Runner: func(ctx context.Context, spec JobSpec) (traffic.Result, error) {
			started <- struct{}{}
			<-gate
			return instantRunner(ctx, spec)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	release := sync.OnceFunc(func() { close(gate) })
	defer func() { release(); drain(t, s) }()

	snap, err := s.Submit("idle", []JobSpec{testSpec(0.02, 1), testSpec(0.02, 2)})
	if err != nil {
		t.Fatal(err)
	}
	queuedKey := snap.Jobs[1].Key
	<-started // job 1 in flight; job 2 holds one of the two slots

	_, err = s.Submit("fresh", []JobSpec{testSpec(0.02, 3), testSpec(0.02, 4)})
	var be *BacklogError
	if !errors.As(err, &be) {
		t.Fatalf("Submit to a full queue = %v, want BacklogError", err)
	}
	if rec, ok := s.Job(queuedKey); !ok || rec.Status != StatusQueued {
		t.Fatalf("idle batch's queued job after a rejected submission = %+v, want queued", rec)
	}

	release()
	for _, rec := range waitDone(t, s, "idle").Jobs {
		if rec.Status != StatusDone || rec.Attempts != 1 {
			t.Errorf("job %s = %+v, want done in 1 attempt", rec.Key, rec)
		}
	}
	if st := s.Stats(); st.Shed != 0 || st.Computed != 2 {
		t.Errorf("stats %+v, want 2 computed and 0 shed", st)
	}
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

// TestReplayOldJournalWithRetriesAndShed: a journal written while the
// service retried and shed jobs holds specs with a retry bound, done
// records after several attempts and "shed" records for queued jobs
// dropped from a full queue. Replay must serve the done record from the
// cache with its attempts, and requeue a job whose last record is
// "shed", even after an earlier failed record, so its batches complete.
func TestReplayOldJournalWithRetriesAndShed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	jn, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	done, shed := testSpec(0.05, 1), testSpec(0.03, 2)
	res := traffic.Result{Offered: 0.05, Delivered: 0.05, MeasuredPackets: 9}
	const (
		doneJSON = `{"width":4,"height":4,"rate":0.05,"payloadFlits":4,"seed":1,"warmup":50,"measure":200,"drain":2000,"maxRetries":3}`
		shedJSON = `{"width":4,"height":4,"rate":0.03,"payloadFlits":4,"seed":2,"warmup":50,"measure":200,"drain":2000,"maxRetries":-1}`
	)
	for _, r := range []struct {
		typ     string
		payload any
	}{
		{"batch", json.RawMessage(`{"id":"old","specs":[` + doneJSON + `,` + shedJSON + `]}`)},
		{"job", JobRecord{Key: done.Key(), Spec: done, Status: StatusDone, Attempts: 3, Result: &res}},
		{"job", JobRecord{Key: shed.Key(), Spec: shed, Status: StatusFailed, Attempts: 1, Error: "panic: flaky"}},
		{"batch", json.RawMessage(`{"id":"again","specs":[` + shedJSON + `]}`)},
		{"job", JobRecord{Key: shed.Key(), Spec: shed, Status: Status("shed"), Error: "shed under queue pressure (batch idle)"}},
	} {
		if err := jn.append(r.typ, r.payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}

	var calls atomic.Int32
	s, err := NewService(Config{
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
	defer drain(t, s)
	old, again := waitDone(t, s, "old"), waitDone(t, s, "again")
	if got := old.Jobs[0]; got.Key != done.Key() || got.Status != StatusDone || !got.Cached ||
		got.Attempts != 3 || got.Result == nil || *got.Result != res {
		t.Errorf("done record = %+v, want the journal's result served from the cache after 3 attempts", got)
	}
	for _, got := range []JobRecord{old.Jobs[1], again.Jobs[0]} {
		if got.Key != shed.Key() || got.Status != StatusDone || got.Cached || got.Attempts != 1 {
			t.Errorf("shed job = %+v, want requeued and run to done in one attempt", got)
		}
	}
	if st := s.Stats(); calls.Load() != 1 || st.Computed != 1 {
		t.Errorf("runner ran %d times, computed %d, want 1: only the shed job runs", calls.Load(), st.Computed)
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
	// A wall-clock deadline must fit a time.Duration: one past that
	// would wrap to a deadline already expired.
	for _, tc := range []struct {
		maxWallMS int64
		ok        bool
	}{
		{-1, false},
		{9_223_372_036_854, true},
		{9_223_372_036_855, false},
	} {
		spec := testSpec(0.02, 2)
		spec.MaxWallMS = tc.maxWallMS
		_, err := s.Submit("", []JobSpec{spec})
		if ok := err == nil; ok != tc.ok {
			t.Errorf("maxWallMS %d: Submit = %v, want accepted %v", tc.maxWallMS, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "outside [0, 9223372036854]ms") {
			t.Errorf("maxWallMS %d: error %q does not name the range", tc.maxWallMS, err)
		}
	}
}

// TestWaitBatchReturnsAtDeadline: a long-poll on a batch that never
// finishes returns when its context expires, wherever the deadline
// lands. The deadlines are spread so that some land between
// WaitBatch's ctx.Err check and its Wait; a wakeup lost there would
// block the call until a job finishes, which here is never.
func TestWaitBatchReturnsAtDeadline(t *testing.T) {
	gate := make(chan struct{})
	s, err := NewService(Config{
		Workers: 1,
		Runner: func(ctx context.Context, spec JobSpec) (traffic.Result, error) {
			<-gate
			return instantRunner(ctx, spec)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { close(gate); drain(t, s) }()
	snap, err := s.Submit("", []JobSpec{testSpec(0.02, 1)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		d := time.Duration(i) * 2 * time.Microsecond // 0 to 600µs
		ctx, cancel := context.WithTimeout(context.Background(), d)
		done := make(chan error, 1)
		go func() {
			_, err := s.WaitBatch(ctx, snap.ID)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("WaitBatch with a %v deadline = %v, want DeadlineExceeded", d, err)
			}
		case <-time.After(time.Second):
			t.Fatalf("WaitBatch with a %v deadline still blocked after 1s", d)
		}
		cancel()
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
