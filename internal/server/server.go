// Package server exposes a SHIFT-SPLIT store over an HTTP/JSON API — the
// query-serving subsystem on top of the library's parallel read path. One
// Server multiplexes any number of concurrent clients onto one shared
// store:
//
//	POST /v1/point         {"point":[5,7]}
//	POST /v1/rangesum      {"start":[0,0],"extent":[8,8]}
//	POST /v1/progressive   {"start":[0,0],"extent":[8,8],"every":4}   (NDJSON stream)
//	POST /v1/olap/rollup   {"dim":1}
//	POST /v1/olap/slice    {"dim":1,"index":3}
//	POST /v1/olap/dice     {"dim":1,"start":4,"length":4}
//	GET  /v1/healthz
//	GET  /v1/stats
//
// Request handling is bounded two ways: a semaphore caps the number of
// queries executing at once (excess requests get 429 so load sheds at the
// edge instead of queueing without bound), and the two routes that can run
// long — a progressive stream and an ingest request waiting on its group
// commit — run under a per-request deadline. Point, range-sum and OLAP
// queries do not check one. Shutdown drains in-flight queries before
// closing.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/shiftsplit/shiftsplit"
	"github.com/shiftsplit/shiftsplit/internal/ingest"
	"github.com/shiftsplit/shiftsplit/internal/query"
	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// Config bounds and addresses a Server. Zero values pick sensible defaults.
type Config struct {
	// Addr is the listen address for ListenAndServe (default ":8080").
	Addr string
	// MaxConcurrent caps the queries executing at once; excess requests are
	// rejected with 429 (default 64).
	MaxConcurrent int
	// QueryTimeout is the per-request deadline of /v1/progressive and
	// /v1/ingest, the routes that observe one (default 10s).
	QueryTimeout time.Duration
	// DrainTimeout bounds how long shutdown waits for in-flight queries
	// (default 15s).
	DrainTimeout time.Duration
	// MaxResultCells caps the number of cells an OLAP result may carry in
	// one response (default 65536); a larger one gets 413 and reads nothing.
	MaxResultCells int
	// MaxBodyBytes caps the request body (default 1 MiB).
	MaxBodyBytes int64
	// Ingest, when non-nil, mounts the write path: POST /v1/ingest (JSON
	// and NDJSON slabs), /v1/ingest/stream, and /v1/ingest/point, plus an
	// ingest section in /v1/stats. The server borrows the ingester; the
	// caller closes it after shutdown.
	Ingest *ingest.Ingester
	// Log receives serving lifecycle messages; nil discards them.
	Log *log.Logger
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 64
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 10 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 15 * time.Second
	}
	if c.MaxResultCells <= 0 {
		c.MaxResultCells = 1 << 16
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	return c
}

// Server serves queries against one store. Create with New.
type Server struct {
	st    *shiftsplit.Store
	cfg   Config
	start time.Time
	sem   chan struct{}

	inflight atomic.Int64
	served   atomic.Int64
	rejected atomic.Int64
	failed   atomic.Int64

	handler http.Handler
}

// New builds a Server over st. The store must outlive the server; the
// caller keeps ownership and closes it after shutdown.
func New(st *shiftsplit.Store, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		st:    st,
		cfg:   cfg,
		start: time.Now(),
		sem:   make(chan struct{}, cfg.MaxConcurrent),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/point", s.admit(s.handlePoint))
	mux.HandleFunc("POST /v1/rangesum", s.admit(s.handleRangeSum))
	mux.HandleFunc("POST /v1/progressive", s.limited(s.handleProgressive))
	mux.HandleFunc("POST /v1/olap/rollup", s.limited(s.handleOLAP))
	mux.HandleFunc("POST /v1/olap/slice", s.limited(s.handleOLAP))
	mux.HandleFunc("POST /v1/olap/dice", s.limited(s.handleOLAP))
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	if cfg.Ingest != nil {
		mux.HandleFunc("POST /v1/ingest", s.admit(s.handleIngest))
		mux.HandleFunc("POST /v1/ingest/stream", s.limited(s.handleIngestStream))
		mux.HandleFunc("POST /v1/ingest/point", s.limited(s.handleIngestPoint))
	}
	s.handler = recoverJSON(mux)
	return s
}

// Handler returns the server's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.handler }

// ListenAndServe serves on cfg.Addr until ctx is canceled (e.g. by
// SIGTERM), then drains in-flight queries for up to DrainTimeout before
// returning. A nil return means a clean drain.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Serve is ListenAndServe over an existing listener (tests use a
// 127.0.0.1:0 listener to get a free port).
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{Handler: s.handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	s.logf("serving on %s (max %d concurrent queries, %s timeout)",
		ln.Addr(), s.cfg.MaxConcurrent, s.cfg.QueryTimeout)
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		s.logf("shutdown requested, draining %d in-flight queries", s.inflight.Load())
		// The drain deadline must keep running after ctx — the trigger for
		// this shutdown — is already canceled, so derive from ctx without
		// inheriting its cancellation rather than minting a detached context.
		drainCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), s.cfg.DrainTimeout)
		defer cancel()
		err := srv.Shutdown(drainCtx)
		<-errc // Serve has returned http.ErrServerClosed
		if err != nil {
			return fmt.Errorf("server: drain incomplete: %w", err)
		}
		s.logf("drained cleanly after serving %d queries", s.served.Load())
		return nil
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Printf(format, args...)
	}
}

// admit is the admission-control middleware: bounded concurrency with load
// shedding, and failure accounting. It sets no deadline: the handlers that
// pass a context on (progressive, ingest) derive theirs from QueryTimeout.
// Its handlers cap their own bodies (readBody, fallback).
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
		default:
			s.rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "server at capacity")
			return
		}
		defer func() { <-s.sem }()
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		h(w, r)
	}
}

// limited is admit plus the body cap, for the handlers that read their
// body only through decode.
func (s *Server) limited(h http.HandlerFunc) http.HandlerFunc {
	return s.admit(func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		h(w, r)
	})
}

// recoverJSON converts any residual panic into a 500 JSON error so one bad
// request can never take down the serving process.
func recoverJSON(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", v))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Error: msg})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// answer writes a query's answer, byte for byte what writeJSON writes, and
// counts it served. An answer JSON cannot carry (a non-finite value) fails
// the request as the store's fault instead of going out as 200 with an
// empty body.
func (s *Server) answer(w http.ResponseWriter, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.served.Add(1)
	send(w, jsonContentType, append(b, '\n'))
}

// decode strictly parses a JSON request body into dst: unknown fields,
// trailing garbage, and oversized bodies are all errors.
func decode(r *http.Request, dst any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("bad request body: %v", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return errors.New("bad request body: trailing data")
	}
	return nil
}

// fail classifies a query error: malformed queries are the client's fault
// (400); an open circuit breaker is a temporary outage the client should
// retry (503 + Retry-After); an exhausted medium is 507; anything else is
// the store's fault (500).
func (s *Server) fail(w http.ResponseWriter, err error) {
	s.failed.Add(1)
	switch {
	case errors.Is(err, query.ErrInvalid):
		writeError(w, http.StatusBadRequest, err.Error())
	case errors.Is(err, storage.ErrUnavailable):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case storage.IsSpaceExhausted(err):
		writeError(w, http.StatusInsufficientStorage, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// degradedSince reports whether the store zero-filled any quarantined
// block since the before sample — the per-response degraded flag. Samples
// bracket each query, so a degraded answer is always flagged; under
// concurrent load a clean answer may be flagged too (another query's
// degraded read lands between the samples), which errs on the safe side:
// the flag means "may be partial", never the reverse.
func (s *Server) degradedSince(before int64) bool {
	return s.st.DegradedReads() != before
}
