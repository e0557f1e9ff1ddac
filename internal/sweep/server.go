package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// SubmitRequest is the POST /v1/batches body.
type SubmitRequest struct {
	// ID optionally names the batch; resubmitting the same ID with the
	// same jobs is idempotent. Empty lets the service pick one.
	ID   string    `json:"id,omitempty"`
	Jobs []JobSpec `json:"jobs"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP API:
//
//	POST /v1/batches          submit a batch       → 202 BatchSnapshot
//	GET  /v1/batches/{id}     poll a batch         → 200 BatchSnapshot
//	GET  /v1/batches/{id}?wait=1   long-poll until done (≤25s)
//	GET  /v1/jobs/{key}       one job's record     → 200 JobRecord
//	GET  /v1/healthz          service stats        → 200 Stats
//
// Failure mapping: invalid spec or body → 400, unknown id/key → 404,
// batch id conflict → 409, queue full → 429 with Retry-After (seconds),
// draining → 503.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/batches", func(w http.ResponseWriter, r *http.Request) {
		// Decode strictly: a misspelt field would be dropped and its job
		// run with the field's default, and trailing data ignored.
		// Journal replay stays lenient, so old journals still load.
		var req SubmitRequest
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		err := dec.Decode(&req)
		if err == nil {
			if _, end := dec.Token(); end != io.EOF {
				err = errors.New("data after the JSON value")
			}
		}
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("bad request body: %v", err)})
			return
		}
		snap, err := s.Submit(req.ID, req.Jobs)
		if err != nil {
			writeSubmitError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, snap)
	})

	mux.HandleFunc("GET /v1/batches/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if r.URL.Query().Get("wait") != "" {
			ctx, cancel := context.WithTimeout(r.Context(), 25*time.Second)
			defer cancel()
			snap, err := s.WaitBatch(ctx, id)
			switch {
			case err == nil, errors.Is(err, context.DeadlineExceeded),
				errors.Is(err, context.Canceled), errors.Is(err, ErrDraining):
				writeJSON(w, http.StatusOK, snap) // partial snapshot on timeout/drain
			default:
				writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
			}
			return
		}
		snap, ok := s.BatchStatus(id)
		if !ok {
			writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown batch " + id})
			return
		}
		writeJSON(w, http.StatusOK, snap)
	})

	mux.HandleFunc("GET /v1/jobs/{key}", func(w http.ResponseWriter, r *http.Request) {
		rec, ok := s.Job(r.PathValue("key"))
		if !ok {
			writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job " + r.PathValue("key")})
			return
		}
		writeJSON(w, http.StatusOK, rec)
	})

	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})

	return mux
}

func writeSubmitError(w http.ResponseWriter, err error) {
	var ve *ValidationError
	var be *BacklogError
	switch {
	case errors.As(err, &ve):
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: ve.Error()})
	case errors.As(err, &be):
		w.Header().Set("Retry-After", strconv.Itoa(int(be.RetryAfter.Seconds()+0.5)))
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: be.Error()})
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	case errors.Is(err, ErrBatchMismatch):
		writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
