package server

import (
	"context"
	"encoding/json"
	"net/http"
	"path"
	"time"

	"github.com/shiftsplit/shiftsplit"
	"github.com/shiftsplit/shiftsplit/internal/ingest"
	"github.com/shiftsplit/shiftsplit/internal/query"
	"github.com/shiftsplit/shiftsplit/internal/storage"
)

type pointRequest struct {
	Point []int `json:"point"`
}

type pointResponse struct {
	Point      []int   `json:"point"`
	Value      float64 `json:"value"`
	BlocksRead int     `json:"blocks_read"`
	// Degraded marks an answer that may be partial: at least one block it
	// touched was quarantined and served as zeros.
	Degraded bool `json:"degraded,omitempty"`
	// Epoch is the committed epoch the answer was read from (versioned
	// stores only): the whole request resolved one pinned snapshot, even if
	// maintenance flipped mid-flight.
	Epoch uint64 `json:"epoch,omitempty"`
}

func (s *Server) handlePoint(w http.ResponseWriter, r *http.Request) {
	sc := getScratch()
	defer putScratch(sc)
	var point []int
	if s.readBody(r, sc) && sc.decodePoint() {
		point = sc.start
	} else {
		s.fallback(w, r, sc)
		var req pointRequest
		if err := decode(r, &req); err != nil {
			s.failed.Add(1)
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		point = req.Point
	}
	before := s.st.DegradedReads()
	snap := s.st.AcquireSnapshot()
	defer snap.Release()
	v, blocks, err := snap.Point(point...)
	if err == nil {
		err = finite("value", v)
	}
	if err != nil {
		s.fail(w, err)
		return
	}
	s.served.Add(1)
	resp := pointResponse{Point: point, Value: v, BlocksRead: blocks, Degraded: s.degradedSince(before), Epoch: snap.Epoch()}
	sc.out = resp.appendJSON(sc.out[:0])
	send(w, jsonContentType, sc.out)
}

type rangeRequest struct {
	Start  []int `json:"start"`
	Extent []int `json:"extent"`
}

type rangeResponse struct {
	Start      []int   `json:"start"`
	Extent     []int   `json:"extent"`
	Sum        float64 `json:"sum"`
	BlocksRead int     `json:"blocks_read"`
	Degraded   bool    `json:"degraded,omitempty"` // see pointResponse.Degraded
	Epoch      uint64  `json:"epoch,omitempty"`    // see pointResponse.Epoch
}

func (s *Server) handleRangeSum(w http.ResponseWriter, r *http.Request) {
	sc := getScratch()
	defer putScratch(sc)
	var start, extent []int
	if s.readBody(r, sc) && sc.decodeRange() {
		start, extent = sc.start, sc.extent
	} else {
		s.fallback(w, r, sc)
		var req rangeRequest
		if err := decode(r, &req); err != nil {
			s.failed.Add(1)
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		start, extent = req.Start, req.Extent
	}
	before := s.st.DegradedReads()
	snap := s.st.AcquireSnapshot()
	defer snap.Release()
	sum, blocks, err := snap.RangeSum(start, extent)
	if err == nil {
		err = finite("sum", sum)
	}
	if err != nil {
		s.fail(w, err)
		return
	}
	s.served.Add(1)
	resp := rangeResponse{Start: start, Extent: extent, Sum: sum, BlocksRead: blocks, Degraded: s.degradedSince(before), Epoch: snap.Epoch()}
	sc.out = resp.appendJSON(sc.out[:0])
	send(w, jsonContentType, sc.out)
}

type progressiveRequest struct {
	Start  []int `json:"start"`
	Extent []int `json:"extent"`
	// Every emits one refinement line per this many coefficients (default
	// 1); the exact final answer is always emitted.
	Every int `json:"every"`
}

type progressiveStep struct {
	Estimate     float64 `json:"estimate"`
	Coefficients int     `json:"coefficients"`
	BlocksRead   int     `json:"blocks_read"`
	Degraded     bool    `json:"degraded,omitempty"` // see pointResponse.Degraded
	Final        bool    `json:"final,omitempty"`
}

// handleProgressive streams refinement steps as NDJSON: the client sees a
// coarse estimate from the first coefficient and successive refinements as
// further coefficients are folded — the paper's progressive query answering
// mode, on the wire. The query's blocks are all read before the first line;
// a line's blocks_read counts the distinct blocks among the coefficients
// folded so far, so only the final line's is the I/O done.
func (s *Server) handleProgressive(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.QueryTimeout)
	defer cancel()
	var req progressiveRequest
	if err := decode(r, &req); err != nil {
		s.failed.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if s.st.Form() != shiftsplit.Standard {
		s.failed.Add(1)
		writeError(w, http.StatusBadRequest, "progressive queries need a standard-form store")
		return
	}
	if err := query.ValidateBox(s.st.Shape(), req.Start, req.Extent); err != nil {
		s.fail(w, err)
		return
	}
	every := req.Every
	if every < 1 {
		every = 1
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w) // Encode appends the NDJSON newline
	before := s.st.DegradedReads()
	// One pin for the whole stream: every refinement line describes the same
	// epoch even while maintenance flips underneath.
	snap := s.st.AcquireSnapshot()
	defer snap.Release()
	var last progressiveStep
	have := false
	err := snap.ProgressiveRangeSumFunc(req.Start, req.Extent, func(st shiftsplit.ProgressiveStep) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		last = progressiveStep{Estimate: st.Estimate, Coefficients: st.Coefficients, BlocksRead: st.Blocks, Degraded: s.degradedSince(before)}
		have = true
		if st.Coefficients%every == 0 {
			if err := enc.Encode(last); err != nil {
				return err
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		return nil
	})
	if err != nil {
		// The stream is already committed; all we can do is stop. The
		// missing final line tells the client the answer is incomplete.
		s.failed.Add(1)
		return
	}
	if have {
		last.Final = true
		last.Degraded = s.degradedSince(before)
		enc.Encode(last)
		if flusher != nil {
			flusher.Flush()
		}
	}
	s.served.Add(1)
}

type olapRequest struct {
	Dim    int `json:"dim"`
	Index  int `json:"index,omitempty"`
	Start  int `json:"start,omitempty"`
	Length int `json:"length,omitempty"`
}

type olapResponse struct {
	Op         string    `json:"op"`
	Dim        int       `json:"dim"`
	Shape      []int     `json:"shape"`
	Values     []float64 `json:"values"`
	BlocksRead int       `json:"blocks_read"`
	Degraded   bool      `json:"degraded,omitempty"` // see pointResponse.Degraded
	Epoch      uint64    `json:"epoch,omitempty"`    // see pointResponse.Epoch
}

// handleOLAP answers a rollup, slice or dice from the request's own pinned
// snapshot, reading only the operator's band. The request is validated and
// its result sized against MaxResultCells before anything is pinned or read.
func (s *Server) handleOLAP(w http.ResponseWriter, r *http.Request) {
	var req olapRequest
	if err := decode(r, &req); err != nil {
		s.failed.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	op := shiftsplit.OLAPOp{Op: path.Base(r.URL.Path), Dim: req.Dim, Index: req.Index, Start: req.Start, Length: req.Length}
	cells, err := s.st.OLAPCells(op)
	if err != nil {
		s.fail(w, err)
		return
	}
	if cells > s.cfg.MaxResultCells {
		s.failed.Add(1)
		writeError(w, http.StatusRequestEntityTooLarge, "result cube too large for one response")
		return
	}
	before := s.st.DegradedReads()
	snap := s.st.AcquireSnapshot()
	defer snap.Release()
	out, blocks, err := snap.OLAP(op)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.answer(w, olapResponse{Op: op.Op, Dim: op.Dim, Shape: out.Shape(), Values: out.Data(), BlocksRead: blocks, Degraded: s.degradedSince(before), Epoch: snap.Epoch()})
}

type healthResponse struct {
	// Status is "ok" or "degraded" (quarantined blocks or a non-closed
	// breaker). A degraded store keeps serving — flagged, never silent.
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Quarantined   int     `json:"quarantined,omitempty"`
	DegradedReads int64   `json:"degraded_reads,omitempty"`
	Breaker       string  `json:"breaker,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.st.Health()
	writeJSON(w, healthResponse{
		Status:        h.Status,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Quarantined:   h.Quarantined,
		DegradedReads: h.DegradedReads,
		Breaker:       h.Breaker,
	})
}

type statsResponse struct {
	UptimeSeconds float64                    `json:"uptime_seconds"`
	Queries       queryStats                 `json:"queries"`
	Store         storeStats                 `json:"store"`
	Cache         *shiftsplit.CacheStats     `json:"cache,omitempty"`
	Health        shiftsplit.Health          `json:"health"`
	Quarantined   []storage.QuarantineRecord `json:"quarantined,omitempty"`
	Scrub         *storage.ScrubStats        `json:"scrub,omitempty"`
	Breaker       *breakerStats              `json:"breaker,omitempty"`
	// Epochs reports the MVCC layer on versioned stores: current epoch,
	// outstanding snapshot pins (oldest pinned epoch exposes leaks holding
	// back reclamation), and free/reclaimable physical blocks.
	Epochs *shiftsplit.EpochStats `json:"epochs,omitempty"`
	// Ingest carries the write path's fsync-amortization accounting
	// (appends-per-journal-group, items/sec, commit latency histogram)
	// when the server mounts an ingester.
	Ingest *ingest.Stats `json:"ingest,omitempty"`
}

type breakerStats struct {
	State    string `json:"state"`
	Trips    int64  `json:"trips"`
	Rejected int64  `json:"rejected"`
}

type queryStats struct {
	Served   int64 `json:"served"`
	Failed   int64 `json:"failed"`
	Rejected int64 `json:"rejected"`
	Inflight int64 `json:"inflight"`
}

type storeStats struct {
	Shape     []int  `json:"shape"`
	Form      string `json:"form"`
	Blocks    int    `json:"blocks"`
	BlockSize int    `json:"block_size"`
	Reads     int64  `json:"reads"`
	Writes    int64  `json:"writes"`
	Syncs     int64  `json:"syncs"`
	Commits   int64  `json:"commits"`
	// MappedReads is the subset of reads served zero-syscall from a
	// memory mapping (stores opened with Mapped).
	MappedReads int64 `json:"mapped_reads"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	io := s.st.Stats()
	resp := statsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Queries: queryStats{
			Served:   s.served.Load(),
			Failed:   s.failed.Load(),
			Rejected: s.rejected.Load(),
			Inflight: s.inflight.Load(),
		},
		Store: storeStats{
			Shape:       s.st.Shape(),
			Form:        s.st.Form().String(),
			Blocks:      s.st.NumBlocks(),
			BlockSize:   s.st.BlockSize(),
			Reads:       io.Reads,
			Writes:      io.Writes,
			Syncs:       io.Syncs,
			Commits:     io.Commits,
			MappedReads: io.MappedReads,
		},
	}
	if cs, ok := s.st.CacheStats(); ok {
		resp.Cache = &cs
	}
	resp.Health = s.st.Health()
	resp.Quarantined = s.st.Quarantined()
	if ss, ok := s.st.ScrubStats(); ok {
		resp.Scrub = &ss
	}
	if state, trips, rejected, ok := s.st.BreakerStats(); ok {
		resp.Breaker = &breakerStats{State: state, Trips: trips, Rejected: rejected}
	}
	if es, ok := s.st.EpochStats(); ok {
		resp.Epochs = &es
	}
	if s.cfg.Ingest != nil {
		ist := s.cfg.Ingest.Stats()
		resp.Ingest = &ist
	}
	writeJSON(w, resp)
}
