package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"github.com/shiftsplit/shiftsplit"
	"github.com/shiftsplit/shiftsplit/internal/appender"
	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/ingest"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/server"
	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// rangeCheckEvery is how many range-sum answers pass between two that are
// recomputed by brute force on the oracle; every point answer is checked.
const rangeCheckEvery = 32

// recorder is the in-memory http.ResponseWriter: bodies are appended to
// one arena and parsed after the pass, outside every timed span and
// outside the allocation window.
type recorder struct {
	hdr    http.Header
	status int
	arena  []byte
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	r.arena = append(r.arena, p...)
	return len(p), nil
}

// bodyReader is a resettable request body, so a pass allocates nothing of
// its own per op.
type bodyReader struct {
	b []byte
	i int
}

func (b *bodyReader) Read(p []byte) (int, error) {
	if b.i >= len(b.b) {
		return 0, io.EOF
	}
	n := copy(p, b.b[b.i:])
	b.i += n
	return n, nil
}

func (b *bodyReader) Close() error { return nil }

// counters is a snapshot of every count a pass is charged with.
type counters struct {
	Hits, Misses, Loads, Evictions        int64 // serve caches of both stores
	Reads, Writes, Syncs, Commits, Mapped int64 // below-cache block I/O (served stores + ingest appender)
	Flips                                 int64
	Mallocs                               uint64
}

func (c counters) sub(o counters) counters {
	return counters{
		Hits: c.Hits - o.Hits, Misses: c.Misses - o.Misses, Loads: c.Loads - o.Loads, Evictions: c.Evictions - o.Evictions,
		Reads: c.Reads - o.Reads, Writes: c.Writes - o.Writes, Syncs: c.Syncs - o.Syncs, Commits: c.Commits - o.Commits, Mapped: c.Mapped - o.Mapped,
		Flips: c.Flips - o.Flips, Mallocs: c.Mallocs - o.Mallocs,
	}
}

func (c counters) add(o counters) counters {
	return counters{
		Hits: c.Hits + o.Hits, Misses: c.Misses + o.Misses, Loads: c.Loads + o.Loads, Evictions: c.Evictions + o.Evictions,
		Reads: c.Reads + o.Reads, Writes: c.Writes + o.Writes, Syncs: c.Syncs + o.Syncs, Commits: c.Commits + o.Commits, Mapped: c.Mapped + o.Mapped,
		Flips: c.Flips + o.Flips, Mallocs: c.Mallocs + o.Mallocs,
	}
}

// exact is the subset of counters that must repeat exactly pass to pass.
// Mallocs is whole-process and has its own noise bound. On the ingest
// workload the commit count is left out too: a request whose 16 slabs
// straddle the ingester's 2 ms gathering window commits as two groups, which
// moves no block but adds a journal commit, and a timer decides when.
func (c counters) exact(sp spec) counters {
	c.Mallocs = 0
	if sp.Ingest {
		c.Commits, c.Syncs = 0, 0
	}
	return c
}

// blocksTouched is the paper's block-access count: every block the
// operation touched, whether the cache or the device supplied it.
func (c counters) blocksTouched() int64 { return c.Hits + c.Reads + c.Writes }

type passMode int

const (
	viaHandler passMode = iota // queries and ingest through Handler().ServeHTTP
	direct                     // the twin: the same ops as direct Store / Ingester calls
)

// passResult is what one pass of a workload's op sequence produced.
type passResult struct {
	Spans       []int64 // ns per op, in op order
	WallS, CPUS float64
	Counts      counters
	Device      deviceTotals // traced passes only
	Failed      int
	StoredBytes int64
	// Ingest-layer stats of the pass's own ingester.
	Ingest *ingest.Stats
}

// runner drives one workload over one setup.
type runner struct {
	sp  spec
	sz  size
	ops []op
	set *setup
	tr  *tracer // nil untraced

	handlers [2]http.Handler
	reqs     [2][2]*http.Request // [form][point|rangesum]
	body     bodyReader
	rec      recorder
	respEnd  []int // arena offset after each op's response
	status   []int
	blocks   []shiftsplit.Block // merge ops' target blocks, built once

	deltaData [numDeltas]*ndarray.Array       // data-domain 16x16 deltas
	deltaHat  [2][numDeltas]*shiftsplit.Array // their transforms, per form
	// oracle is the dense truth per store: the source cells plus every
	// merge applied so far. Workloads that never merge share the source.
	oracle [2][]float64

	ingestSeq int // passes run so far; each gets its own directory
	ingestReq *http.Request
}

func newRunner(sp spec, sz size, seed int64, set *setup, tr *tracer) (*runner, error) {
	r := &runner{sp: sp, sz: sz, set: set, tr: tr, ops: genOps(sp, sz, seed)}
	r.rec.hdr = make(http.Header)
	r.respEnd = make([]int, len(r.ops))
	r.status = make([]int, len(r.ops))
	r.blocks = make([]shiftsplit.Block, len(r.ops))
	for i, o := range r.ops {
		if o.Kind == opMerge {
			r.blocks[i] = shiftsplit.CubeBlock(mergeLevel, o.P[0], o.P[1])
		}
	}
	per := 160
	if sp.Ingest {
		per = ingestSlabs * 96
	}
	r.rec.arena = make([]byte, 0, per*len(r.ops))
	for f := range forms {
		r.handlers[f] = server.New(set.stores[f], server.Config{}).Handler()
		for k, path := range []string{"/v1/point", "/v1/rangesum"} {
			req, err := http.NewRequest(http.MethodPost, path, nil)
			if err != nil {
				return nil, err
			}
			req.Header.Set("Content-Type", "application/json")
			r.reqs[f][k] = req
		}
		r.oracle[f] = set.src.Data()
		if sp.MergeEvery > 0 {
			r.oracle[f] = append([]float64(nil), set.src.Data()...)
		}
	}
	for k := range r.deltaData {
		r.deltaData[k] = dataset.Dense([]int{mergeEdge, mergeEdge}, seed*131+int64(k)+7)
		for f, form := range forms {
			r.deltaHat[f][k] = shiftsplit.Transform(r.deltaData[k], form)
		}
	}
	if sp.Ingest {
		req, err := http.NewRequest(http.MethodPost, "/v1/ingest", nil)
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/x-ndjson")
		r.ingestReq = req
	}
	return r, nil
}

func (r *runner) snapshotCounters() counters {
	var c counters
	for _, st := range r.set.stores {
		if cs, ok := st.CacheStats(); ok {
			c.Hits += cs.Hits
			c.Misses += cs.Misses
			c.Loads += cs.Loads
			c.Evictions += cs.Evictions
		}
		io := st.Stats()
		c.Reads += io.Reads
		c.Writes += io.Writes
		c.Syncs += io.Syncs
		c.Commits += io.Commits
		c.Mapped += io.MappedReads
		c.Flips += int64(st.CurrentEpoch())
	}
	return c
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// window brackets the measured part of a pass: what it records at open is
// subtracted at close.
type window struct {
	mallocs uint64
	cpu     float64
	wall    time.Time
	dev     deviceTotals
}

func (r *runner) openWindow() window {
	var w window
	if r.tr != nil {
		w.dev = r.tr.dev
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.mallocs, w.cpu, w.wall = ms.Mallocs, cpuSeconds(), time.Now()
	return w
}

// closeWindow fills in the pass's wall and CPU time, allocation count and device
// totals; the caller adds the layer counters.
func (r *runner) closeWindow(w window, res *passResult) {
	res.WallS, res.CPUS = time.Since(w.wall).Seconds(), cpuSeconds()-w.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.Counts.Mallocs = ms.Mallocs - w.mallocs
	if r.tr != nil {
		res.Device = r.tr.dev.sub(w.dev)
	}
}

// startOp opens op i's span (and its trace span, when tracing); endOp
// closes both.
func (r *runner) startOp(name spanName) (int32, time.Time) {
	var id int32
	if r.tr != nil {
		id = r.tr.begin(name)
	}
	return id, time.Now()
}

func (r *runner) endOp(i int, id int32, t0 time.Time, res *passResult) {
	res.Spans[i] = int64(time.Since(t0))
	if r.tr != nil {
		r.tr.end(id)
	}
	r.respEnd[i] = len(r.rec.arena)
}

// pass executes the op sequence once. Spans cover exactly the call into the
// system; answers are checked afterwards.
func (r *runner) pass(mode passMode) (passResult, error) {
	if r.sp.Ingest {
		return r.passIngest(mode)
	}
	res := passResult{Spans: make([]int64, len(r.ops))}
	r.rec.arena = r.rec.arena[:0]
	var directVals []float64
	if mode == direct {
		directVals = make([]float64, len(r.ops))
	}
	before := r.snapshotCounters()
	w := r.openWindow()
	for i := range r.ops {
		o := &r.ops[i]
		st := r.set.stores[o.Form]
		name := spanRequest
		if mode == direct || o.Kind == opMerge {
			name = spanStore
		}
		var err error
		id, t0 := r.startOp(name)
		switch {
		case o.Kind == opMerge:
			err = st.MergeBlock(r.blocks[i], r.deltaHat[o.Form][o.Delta])
			r.status[i] = http.StatusOK
		case mode == direct && o.Kind == opPoint:
			directVals[i], _, err = st.Point(o.P[0], o.P[1])
			r.status[i] = http.StatusOK
		case mode == direct:
			directVals[i], _, err = st.RangeSum(o.P[:], o.Q[:])
			r.status[i] = http.StatusOK
		default:
			req := r.reqs[o.Form][o.Kind]
			r.body.b, r.body.i = o.Body, 0
			req.Body = &r.body
			r.rec.status = 0
			r.handlers[o.Form].ServeHTTP(&r.rec, req)
			r.status[i] = r.rec.status
		}
		r.endOp(i, id, t0, &res)
		if err != nil {
			r.status[i] = http.StatusInternalServerError
		}
	}
	res.Counts = r.snapshotCounters().sub(before)
	r.closeWindow(w, &res)
	res.Failed = r.verify(mode, directVals)
	var err error
	res.StoredBytes, err = r.set.storedBytes()
	return res, err
}

// verify replays the pass against the oracle in op order, applying each
// merge to the oracle where it happened, and returns how many ops failed:
// a non-200, an error, or an answer off by more than 1e-6 relative.
func (r *runner) verify(mode passMode, directVals []float64) int {
	failed, ranges, start := 0, 0, 0
	edge := r.sz.Edge
	for i := range r.ops {
		o := &r.ops[i]
		resp := r.rec.arena[start:r.respEnd[i]]
		start = r.respEnd[i]
		if r.status[i] != http.StatusOK {
			failed++
			continue
		}
		cells := r.oracle[o.Form]
		switch o.Kind {
		case opMerge:
			d := r.deltaData[o.Delta].Data()
			for y := 0; y < mergeEdge; y++ {
				row := (o.P[0]*mergeEdge+y)*edge + o.P[1]*mergeEdge
				for x := 0; x < mergeEdge; x++ {
					cells[row+x] += d[y*mergeEdge+x]
				}
			}
		case opPoint:
			got, ok := r.answer(mode, directVals, i, resp)
			if !ok || !closeTo(got, cells[o.P[0]*edge+o.P[1]]) {
				failed++
				r.reportFailure(i, got, cells[o.P[0]*edge+o.P[1]], resp)
			}
		case opRange:
			ranges++
			got, ok := r.answer(mode, directVals, i, resp)
			if !ok {
				failed++
				continue
			}
			if ranges%rangeCheckEvery != 0 && !r.sz.Smoke {
				continue
			}
			var want float64
			for y := o.P[0]; y < o.P[0]+o.Q[0]; y++ {
				for _, v := range cells[y*edge+o.P[1] : y*edge+o.P[1]+o.Q[1]] {
					want += v
				}
			}
			if !closeTo(got, want) {
				failed++
				r.reportFailure(i, got, want, resp)
			}
		}
	}
	return failed
}

// reportFailure describes a wrong answer on standard error; a benchmark
// that fails ops is of no use until someone knows which.
func (r *runner) reportFailure(i int, got, want float64, resp []byte) {
	o := &r.ops[i]
	fmt.Fprintf(os.Stderr, "bench: %s: op %d (%s on the %s store, %v %v) answered %v, oracle has %v; response %q\n",
		r.sp.Name, i, kindNames[o.Kind], formNames[o.Form], o.P, o.Q, got, want, resp)
}

func (r *runner) answer(mode passMode, directVals []float64, i int, resp []byte) (float64, bool) {
	if mode == direct {
		return directVals[i], true
	}
	var body struct {
		Value *float64 `json:"value"`
		Sum   *float64 `json:"sum"`
	}
	if err := json.Unmarshal(resp, &body); err != nil {
		return 0, false
	}
	switch {
	case body.Value != nil:
		return *body.Value, true
	case body.Sum != nil:
		return *body.Sum, true
	}
	return 0, false
}

func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= 1e-6*math.Max(1, math.Abs(want))
}

// passIngest runs one pass of the ingest workload: a fresh durable
// appender and ingester mounted beside the served standard store, so
// every pass starts from the same empty domain and replays the same
// expansions.
func (r *runner) passIngest(mode passMode) (res passResult, err error) {
	r.ingestSeq++
	dir := filepath.Join(r.set.dir, fmt.Sprintf("ingest-pass%d", r.ingestSeq))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return res, err
	}
	defer func() {
		if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
			err = rmErr
		}
	}()
	var wrap func(storage.BlockStore) storage.BlockStore
	if r.tr != nil {
		wrap = func(bs storage.BlockStore) storage.BlockStore { return wrapTimed(bs, r.tr) }
	}
	app, err := appender.NewWithBacking([]int{ingestRows, ingestRows}, ingestTileBits, func(gen, blockSize int) (storage.BlockStore, error) {
		return storage.CreateDurableWrapped(filepath.Join(dir, fmt.Sprintf("gen%d.wav", gen)), blockSize, nil, wrap)
	})
	if err != nil {
		return res, err
	}
	defer func() {
		if cerr := app.Store().Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	in, err := ingest.New(app, ingest.Config{Dim: 1})
	if err != nil {
		return res, err
	}
	defer func() { _ = in.Close() }() // Close only drains and always returns nil
	handler := server.New(r.set.stores[0], server.Config{Ingest: in}).Handler()

	res.Spans = make([]int64, len(r.ops))
	r.rec.arena = r.rec.arena[:0]
	// offsets[i][s] is the column slab s of op i landed at.
	offsets := make([][ingestSlabs]int, len(r.ops))
	slabs := make([][]*ndarray.Array, len(r.ops))
	if mode == direct {
		for i := range r.ops {
			for _, cells := range r.ops[i].Slabs {
				slabs[i] = append(slabs[i], ndarray.FromSlice(append([]float64(nil), cells...), ingestRows, 1))
			}
		}
	}
	name := spanRequest
	if mode == direct {
		name = spanStore
	}
	w := r.openWindow()
	for i := range r.ops {
		o := &r.ops[i]
		id, t0 := r.startOp(name)
		if mode == direct {
			r.status[i] = enqueueGroup(in, slabs[i], &offsets[i])
		} else {
			r.body.b, r.body.i = o.Body, 0
			r.ingestReq.Body = &r.body
			r.rec.status = 0
			handler.ServeHTTP(&r.rec, r.ingestReq)
			r.status[i] = r.rec.status
		}
		r.endOp(i, id, t0, &res)
	}
	r.closeWindow(w, &res)
	ist := in.Stats()
	res.Ingest = &ist
	io := ist.DeviceIO
	res.Counts.Reads, res.Counts.Writes, res.Counts.Mapped = io.Reads, io.Writes, io.MappedReads
	res.Counts.Syncs, res.Counts.Commits = io.Syncs, io.Commits
	if res.StoredBytes, err = dirBytes(dir); err != nil {
		return res, err
	}

	// Committed means queryable: every op's slabs must have landed on
	// distinct consecutive columns, and one cell of each slab is read back
	// from the ingested transform.
	start, next := 0, 0
	for i := range r.ops {
		resp := r.rec.arena[start:r.respEnd[i]]
		start = r.respEnd[i]
		ok := r.status[i] == http.StatusOK
		if ok && mode == viaHandler {
			ok = parseIngestOffsets(resp, &offsets[i])
		}
		if ok {
			seen := make(map[int]bool, ingestSlabs)
			for _, col := range offsets[i] {
				if col < next || col >= next+ingestSlabs || seen[col] {
					ok = false
				}
				seen[col] = true
			}
		}
		next += ingestSlabs
		for s := 0; ok && s < ingestSlabs; s++ {
			row := (i + s) % ingestRows
			got, perr := in.Point([]int{row, offsets[i][s]})
			ok = perr == nil && closeTo(got, r.ops[i].Slabs[s][row])
		}
		if !ok {
			res.Failed++
		}
	}
	return res, nil
}

// enqueueGroup is the handler's fan-out without the handler: the slabs of
// one request enqueued concurrently so they share a group commit.
func enqueueGroup(in *ingest.Ingester, slabs []*ndarray.Array, offsets *[ingestSlabs]int) int {
	var wg sync.WaitGroup
	errs := make([]error, len(slabs))
	for s := range slabs {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			res, err := in.Enqueue(context.Background(), slabs[s])
			if err != nil {
				errs[s] = err
				return
			}
			offsets[s] = res.Offset[1]
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return http.StatusInternalServerError
		}
	}
	return http.StatusOK
}

// parseIngestOffsets reads the NDJSON result lines of one ingest request.
func parseIngestOffsets(resp []byte, offsets *[ingestSlabs]int) bool {
	dec := json.NewDecoder(bytes.NewReader(resp))
	for s := 0; s < ingestSlabs; s++ {
		var line struct {
			Offset []int  `json:"offset"`
			Error  string `json:"error"`
		}
		if err := dec.Decode(&line); err != nil || line.Error != "" || len(line.Offset) != 2 {
			return false
		}
		offsets[s] = line.Offset[1]
	}
	return true
}
