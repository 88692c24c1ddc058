package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"mime"
	"net/http"

	"github.com/shiftsplit/shiftsplit/internal/ingest"
)

// maxNDJSONSlabs caps the slab lines one NDJSON ingest request may carry
// (MaxBodyBytes bounds total payload, this bounds what one request can
// stage at a stroke).
const maxNDJSONSlabs = 1024

type ingestSlabRequest struct {
	// Shape gives the slab's extents; Values its cells in row-major order.
	Shape  []int     `json:"shape"`
	Values []float64 `json:"values"`
}

type ingestResult struct {
	// Offset is the domain coordinate where the slab's origin landed;
	// Group/Slabs identify the group commit that sealed it and how many
	// client slabs shared it (the amortization, per response).
	Offset []int `json:"offset,omitempty"`
	Cells  int   `json:"cells,omitempty"`
	Group  int64 `json:"group,omitempty"`
	Slabs  int   `json:"slabs,omitempty"`
	// Error marks a slab line that was NOT committed (NDJSON bodies only;
	// single-slab requests report errors via the HTTP status instead).
	Error string `json:"error,omitempty"`
}

// ingestFail maps write-path errors onto the read path's status contract,
// preserving the ingest guarantee: 429 and 503 are only ever returned for
// requests that provably did not commit. An in-doubt commit falls through
// to 500 (ambiguous by nature — only reopening the backing resolves it).
func (s *Server) ingestFail(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ingest.ErrBacklog):
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled),
		errors.Is(err, ingest.ErrClosed):
		s.failed.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		s.fail(w, err)
	}
}

func isNDJSON(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	switch ct {
	case "application/x-ndjson", "application/ndjson":
		return true // what ParseMediaType would return, without its parameter map
	case "application/json":
		return false
	}
	ct, _, err := mime.ParseMediaType(ct)
	return err == nil && (ct == "application/x-ndjson" || ct == "application/ndjson")
}

// handleIngest accepts one slab (JSON body) or many (NDJSON body, one
// slab per line) and blocks until their group commit seals, so a 200
// means durable and queryable. The request announces itself to the
// ingester before its body is read, so a group forming meanwhile waits
// for it instead of committing without it.
//
// An NDJSON body is decoded whole up front (any malformed line fails the
// whole request with 400 before anything is enqueued), then its lines are
// staged together, so they share a group commit — one client still gets
// the amortization across its own lines. The NDJSON response carries one
// result line per slab line, in order; lines with an error field were not
// committed.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.QueryTimeout)
	defer cancel()
	req := s.cfg.Ingest.Announce()
	defer req.Withdraw()
	sc := getScratch()
	defer putScratch(sc)
	ndjson := isNDJSON(r)
	if !s.readSlabs(w, r, sc, ndjson) {
		return
	}
	if ndjson && len(sc.slabs) == 0 {
		s.failed.Add(1)
		writeError(w, http.StatusBadRequest, "empty ingest body")
		return
	}
	results, errs := req.Enqueue(ctx, sc.slabs)
	// All lines rejected: surface the first error as the request's status
	// so shed load is visible at the HTTP layer (429/503), not buried in a
	// 200 body. A JSON body's one slab always answers this way.
	allFailed := true
	for _, err := range errs {
		if err == nil {
			allFailed = false
			break
		}
	}
	if allFailed {
		s.ingestFail(w, errs[0])
		return
	}
	s.served.Add(1)
	sc.out = sc.out[:0]
	for i := range results {
		res := lineResult(results[i], errs[i])
		sc.out = res.appendJSON(sc.out)
	}
	if ndjson {
		send(w, ndjsonContentType, sc.out)
	} else {
		send(w, jsonContentType, sc.out)
	}
}

// readSlabs decodes the ingest body into sc.slabs — its one slab, or with
// ndjson one per line — and answers the request itself, returning false,
// when a line is malformed or not a slab.
func (s *Server) readSlabs(w http.ResponseWriter, r *http.Request, sc *scratch, ndjson bool) bool {
	add := func(shape []int, values []float64) bool {
		slab, err := ingest.NewSlab(shape, values)
		if err != nil {
			s.fail(w, err)
			return false
		}
		if ndjson && len(sc.slabs) >= maxNDJSONSlabs {
			s.failed.Add(1)
			writeError(w, http.StatusRequestEntityTooLarge, "too many slab lines in one request")
			return false
		}
		sc.slabs = append(sc.slabs, slab)
		return true
	}
	// The fast path builds each line's slab as soon as it is decoded, as the
	// fallback does, so the first failing line answers either way.
	fast := s.readBody(r, sc)
	p := wireScanner{b: sc.body}
	for fast && !p.done() {
		values, ok := sc.slabLine(&p)
		if fast = ok && (ndjson || p.done()); fast && !add(sc.shape, values) {
			return false
		}
	}
	if fast && (ndjson || len(sc.slabs) == 1) {
		return true
	}
	clear(sc.slabs)
	sc.slabs = sc.slabs[:0]
	s.fallback(w, r, sc)
	if !ndjson {
		var body ingestSlabRequest
		if err := decode(r, &body); err != nil {
			s.failed.Add(1)
			writeError(w, http.StatusBadRequest, err.Error())
			return false
		}
		return add(body.Shape, body.Values)
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	for {
		var line ingestSlabRequest
		if err := dec.Decode(&line); err == io.EOF {
			return true
		} else if err != nil {
			s.failed.Add(1)
			writeError(w, http.StatusBadRequest, "bad request line: "+err.Error())
			return false
		}
		if !add(line.Shape, line.Values) {
			return false
		}
	}
}

func lineResult(res ingest.Result, err error) ingestResult {
	if err != nil {
		return ingestResult{Error: err.Error()}
	}
	return ingestResult{Offset: res.Offset, Cells: res.Cells, Group: res.Group, Slabs: res.Slabs}
}

type ingestStreamRequest struct {
	Values []float64 `json:"values"`
}

type ingestStreamResponse struct {
	// Items is the total stream items absorbed by the synopsis so far.
	Items int64 `json:"items"`
}

func (s *Server) handleIngestStream(w http.ResponseWriter, r *http.Request) {
	var req ingestStreamRequest
	if err := decode(r, &req); err != nil {
		s.failed.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.Values) == 0 {
		s.failed.Add(1)
		writeError(w, http.StatusBadRequest, "empty stream batch")
		return
	}
	items, err := s.cfg.Ingest.AddStream(req.Values)
	if err != nil {
		s.ingestFail(w, err)
		return
	}
	s.served.Add(1)
	writeJSON(w, ingestStreamResponse{Items: items})
}

type ingestPointResponse struct {
	Point []int   `json:"point"`
	Value float64 `json:"value"`
}

// handleIngestPoint answers a point query against the INGESTED transform
// (the serving store is a separate read-optimized dataset) — this is the
// committed ⇒ queryable oracle the chaos harness leans on.
func (s *Server) handleIngestPoint(w http.ResponseWriter, r *http.Request) {
	var req pointRequest
	if err := decode(r, &req); err != nil {
		s.failed.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	v, err := s.cfg.Ingest.Point(req.Point)
	if err != nil {
		s.ingestFail(w, err)
		return
	}
	s.answer(w, ingestPointResponse{Point: req.Point, Value: v})
}
