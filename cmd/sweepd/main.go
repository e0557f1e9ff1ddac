// Command sweepd serves the fault-tolerant design-space sweep service
// over HTTP: submit a batch of simulation configurations, poll until
// every job is terminal, read the aggregated latency/throughput
// results. See internal/sweep for the robustness guarantees (panic
// isolation, deadlines, backpressure, crash-safe journal). Each job is
// attempted once and ends done, failed or timeout.
//
// Usage:
//
//	sweepd -addr :8080 -journal sweep.journal -workers 8
//
// Submit a batch and wait for it (jq-free: the response is indented
// JSON):
//
//	curl -s -X POST localhost:8080/v1/batches -d '{
//	  "id": "rate-sweep",
//	  "jobs": [
//	    {"rate": 0.02, "seed": 1},
//	    {"rate": 0.05, "seed": 1},
//	    {"rate": 0.08, "seed": 1, "routing": "westfirst"}
//	  ]
//	}'
//	curl -s 'localhost:8080/v1/batches/rate-sweep?wait=1'
//
// On SIGTERM/SIGINT the server stops accepting work, finishes
// in-flight jobs (up to -drain-timeout), and exits; queued jobs stay
// in the journal and resume on the next start. Re-POSTing a finished
// batch after a restart is answered from the journal-backed result
// cache without recomputing anything.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/sweep"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 4, "concurrent simulation workers")
	queue := flag.Int("queue", 256, "max queued jobs before backpressure")
	journal := flag.String("journal", "sweep.journal", "crash-safe result journal path (empty = in-memory)")
	maxWall := flag.Duration("max-wall", 2*time.Minute, "default per-job wall-clock deadline")
	maxCycles := flag.Uint64("max-cycles", 50_000_000, "default per-job simulated-cycle budget")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight jobs on shutdown")
	flag.Parse()

	svc, err := sweep.NewService(sweep.Config{
		Workers:          *workers,
		QueueCap:         *queue,
		JournalPath:      *journal,
		DefaultMaxWall:   *maxWall,
		DefaultMaxCycles: *maxCycles,
	})
	if err != nil {
		log.Fatalf("sweepd: %v", err)
	}
	if st := svc.Stats(); st.QueueLen > 0 || st.JournalDropped > 0 {
		log.Printf("sweepd: journal replay: %d jobs resumed, %d known, %d bytes of corrupt tail dropped",
			st.QueueLen, st.Jobs, st.JournalDropped)
	}

	srv := &http.Server{Addr: *addr, Handler: svc.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	go func() {
		<-ctx.Done()
		log.Printf("sweepd: shutdown signal, draining (max %s)", *drainTimeout)
		shCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		srv.Shutdown(shCtx)
	}()

	log.Printf("sweepd: listening on %s (%d workers, journal %q)", *addr, *workers, *journal)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("sweepd: %v", err)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := svc.Drain(drainCtx); err != nil {
		log.Fatalf("sweepd: drain: %v", err)
	}
	log.Printf("sweepd: drained cleanly")
}
