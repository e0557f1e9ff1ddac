// Package sweep is the design-space exploration service: it accepts
// batches of simulation configurations (experiments.TrafficJob points —
// mesh size, routing, traffic pattern, injection rate, seeds), fans
// them out across a worker pool with one independent sim.Clock per job,
// and aggregates latency/throughput results. It is the repo's
// "millions of users" workload: the simulator as a server.
//
// A job's result is a function of its configuration and seed, so the
// service attempts each job once: a second attempt could only repeat
// the first. What it guards against is a job that breaks or hangs, a
// client that submits faster than the pool runs, and a crash:
//
//   - Panic isolation: a panicking model becomes a failed-job record
//     carrying the captured stack, never a dead worker.
//   - Deadlines: every job runs under a wall-clock deadline (context)
//     and a simulated-cycle budget, both enforced inside the kernel via
//     sim.Clock's cancellation hook, so a runaway configuration ends as
//     a recorded timeout instead of a hung worker.
//   - Backpressure: the queue is bounded. A submission that would
//     overflow it is rejected with a retry-after hint (HTTP 429).
//   - Durability: accepted batches and every terminal job record are
//     appended to a crash-safe journal; a restarted service resumes
//     unfinished jobs and serves finished ones from the journal-backed
//     dedupe cache, keyed by (canonical config, seed, code version),
//     without recomputing them. Graceful drain (SIGTERM) finishes
//     in-flight jobs and leaves the rest journaled for the next run.
//
// Every job reaches exactly one terminal state: done, failed or
// timeout. A failed or timed-out job runs again only when a new
// submission names it.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
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
// deadlines. The embedded TrafficJob is the job's identity (see Key);
// the deadlines only bound how long the service spends computing it.
type JobSpec struct {
	experiments.TrafficJob
	// MaxWallMS bounds the job's wall-clock time in milliseconds (0 →
	// the service default). Exceeding it is a terminal timeout.
	MaxWallMS int64 `json:"maxWallMS,omitempty"`
	// MaxCycles bounds the job's simulated time (0 → the service
	// default). Exceeding it is a terminal timeout.
	MaxCycles uint64 `json:"maxCycles,omitempty"`
}

// maxWallMS is the largest MaxWallMS whose deadline a time.Duration
// holds; a larger one overflows the conversion and wraps around.
const maxWallMS = math.MaxInt64 / int64(time.Millisecond)

// Validate reports why the spec cannot be accepted, nil when it can.
func (s JobSpec) Validate() error {
	if s.MaxWallMS < 0 || s.MaxWallMS > maxWallMS {
		return fmt.Errorf("sweep: wall-clock deadline %dms outside [0, %d]ms", s.MaxWallMS, maxWallMS)
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
	// StatusFailed is terminal: the job panicked or returned an error.
	StatusFailed Status = "failed"
	// StatusTimeout is terminal: the job exceeded its wall-clock
	// deadline or simulated-cycle budget.
	StatusTimeout Status = "timeout"
)

// Terminal reports whether the status is an end state.
func (s Status) Terminal() bool {
	switch s {
	case StatusDone, StatusFailed, StatusTimeout:
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

// BacklogError rejects a submission because the queue is full. The
// HTTP layer maps it to 429 with a Retry-After.
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
