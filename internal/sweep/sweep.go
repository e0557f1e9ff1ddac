// Package sweep is the design-space exploration service: it accepts
// batches of simulation configurations (experiments.TrafficJob points —
// mesh size, routing, traffic pattern, injection rate, seeds), fans
// them out across a worker pool with one independent sim.Clock per job,
// and aggregates latency/throughput results. It is the repo's
// "millions of users" workload: the simulator as a server.
//
// Robustness is the design center, because a 10k-job batch is only as
// useful as its worst job:
//
//   - Panic isolation: a panicking model becomes a failed-job record
//     carrying the captured stack, never a dead worker. A worker killed
//     outright (runtime.Goexit, a panic escaping the per-attempt
//     recover) is respawned and its job retried or failed — the pool
//     never shrinks.
//   - Deadlines: every job runs under a wall-clock deadline (context)
//     and a simulated-cycle budget, both enforced inside the kernel via
//     sim.Clock's cancellation hook, so a runaway configuration ends as
//     a recorded timeout instead of a hung worker.
//   - Retry: transient failures (sweep.Transient, worker kills) are
//     retried with exponential backoff and jitter, up to a bounded
//     attempt count; everything else fails fast.
//   - Backpressure: the queue is bounded. When it is full the service
//     first sheds queued jobs of batches no client has polled recently
//     (oldest first, journaled as "shed"), and otherwise rejects the
//     submission with a retry-after hint (HTTP 429).
//   - Durability: accepted batches and every terminal job record are
//     appended to a crash-safe journal; a restarted service resumes
//     unfinished jobs and serves finished ones from the journal-backed
//     dedupe cache, keyed by (canonical config, seed, code version),
//     without recomputing them. Graceful drain (SIGTERM) finishes
//     in-flight jobs and leaves the rest journaled for the next run.
//
// Every job reaches exactly one terminal state: done, failed, timeout
// or shed.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/traffic"
)

// CodeVersion names the simulator revision for the dedupe cache: a
// journaled result is only reused by a binary with the same version, so
// bump this whenever a change alters simulation results or the
// canonical job encoding.
const CodeVersion = "multinoc-sim-8"

// JobSpec is one sweep job: a design-space point plus per-job
// robustness knobs. The embedded TrafficJob is the job's identity (see
// Key); the knobs only shape how hard the service tries to compute it.
type JobSpec struct {
	experiments.TrafficJob
	// MaxWallMS bounds the job's wall-clock time per attempt in
	// milliseconds (0 → the service default). Exceeding it is a
	// terminal timeout.
	MaxWallMS int64 `json:"maxWallMS,omitempty"`
	// MaxCycles bounds the job's simulated time (0 → the service
	// default). Exceeding it is a terminal timeout.
	MaxCycles uint64 `json:"maxCycles,omitempty"`
	// MaxRetries bounds retries after transient failures (0 → the
	// service default, -1 → no retries).
	MaxRetries int `json:"maxRetries,omitempty"`
}

// Validate reports why the spec cannot be accepted, nil when it can.
func (s JobSpec) Validate() error {
	if s.MaxWallMS < 0 {
		return fmt.Errorf("sweep: negative wall-clock deadline %dms", s.MaxWallMS)
	}
	if s.MaxRetries < -1 {
		return fmt.Errorf("sweep: invalid retry bound %d", s.MaxRetries)
	}
	return s.TrafficJob.Validate()
}

// Key is the job's dedupe identity: a hash of the canonical
// configuration (defaults applied, the kernel erased),
// the seed it contains, and the simulator's CodeVersion. Two specs with
// equal keys describe bit-identical simulations, so one result serves
// both — across batches and across service restarts.
func (s JobSpec) Key() string {
	canon, err := json.Marshal(s.TrafficJob.Canonical())
	if err != nil {
		// A TrafficJob is plain data; marshalling cannot fail.
		panic(fmt.Sprintf("sweep: marshal canonical job: %v", err))
	}
	h := sha256.New()
	h.Write(canon)
	h.Write([]byte("|" + CodeVersion))
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	// StatusDone is terminal: the job computed a Result.
	StatusDone Status = "done"
	// StatusFailed is terminal: the job panicked, returned a permanent
	// error, or exhausted its retries.
	StatusFailed Status = "failed"
	// StatusTimeout is terminal: the job exceeded its wall-clock
	// deadline or simulated-cycle budget.
	StatusTimeout Status = "timeout"
	// StatusShed is terminal: the job was load-shed from a full queue
	// before running (its batch had gone idle). Resubmitting the same
	// spec requeues it.
	StatusShed Status = "shed"
)

// Terminal reports whether the status is an end state.
func (s Status) Terminal() bool {
	switch s {
	case StatusDone, StatusFailed, StatusTimeout, StatusShed:
		return true
	}
	return false
}

// JobRecord is the full observable state of one job, as served by the
// API and journaled on terminal transitions.
type JobRecord struct {
	Key      string  `json:"key"`
	Spec     JobSpec `json:"spec"`
	Status   Status  `json:"status"`
	Attempts int     `json:"attempts,omitempty"`
	Error    string  `json:"error,omitempty"`
	// Stack carries the captured goroutine stack of a panicking model.
	Stack  string          `json:"stack,omitempty"`
	Result *traffic.Result `json:"result,omitempty"`
	// Cached marks a job satisfied from the dedupe cache rather than
	// computed for this submission.
	Cached bool `json:"cached,omitempty"`
}

// PanicError is a recovered model panic, converted into an ordinary
// error so it can be journaled and served instead of killing a worker.
type PanicError struct {
	Value string
	Stack string
}

func (e *PanicError) Error() string { return "panic: " + e.Value }

// transientError marks an error as retryable.
type transientError struct{ err error }

func (e *transientError) Error() string { return "transient: " + e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient wraps err so the worker pool retries the job (with
// exponential backoff and jitter, up to its retry bound) instead of
// failing it permanently.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err is marked retryable.
func IsTransient(err error) bool {
	var te *transientError
	return errors.As(err, &te)
}

// ValidationError rejects a submission: job Index of the batch failed
// validation. The HTTP layer maps it to 400.
type ValidationError struct {
	Index int
	Err   error
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("sweep: job %d invalid: %v", e.Index, e.Err)
}
func (e *ValidationError) Unwrap() error { return e.Err }

// BacklogError rejects a submission because the queue is full even
// after shedding. The HTTP layer maps it to 429 with a Retry-After.
type BacklogError struct {
	RetryAfter time.Duration
}

func (e *BacklogError) Error() string {
	return fmt.Sprintf("sweep: queue full, retry after %s", e.RetryAfter)
}

// ErrDraining rejects submissions while the service shuts down.
var ErrDraining = errors.New("sweep: service draining")

// ErrBatchMismatch rejects a batch ID reused with different jobs.
var ErrBatchMismatch = errors.New("sweep: batch id exists with different jobs")
