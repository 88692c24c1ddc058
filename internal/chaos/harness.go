// Package chaos is the full-stack fault-injection harness: it stands up a
// real HTTP serving process over a durable store, then drives it through a
// healthy → faulted → recovered arc while client goroutines hammer the
// query API and check every answer against an in-memory oracle.
//
// The harness asserts the robustness contract end to end:
//
//   - Never silently wrong: an unflagged 200 answer must match the oracle;
//     under injected EIO, latency, read bit-rot, and persistent on-media
//     rot, every other outcome (error status, degraded flag) is legal —
//     a clean-looking wrong answer is not.
//   - Detection: every block rotted on the medium ends up quarantined by
//     the background scrubber while faults are active.
//   - Convergence: after the faults stop and the store is re-materialized,
//     health returns to "ok" and answers are clean and exact again.
package chaos

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/shiftsplit/shiftsplit"
	"github.com/shiftsplit/shiftsplit/internal/appender"
	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/ingest"
	"github.com/shiftsplit/shiftsplit/internal/server"
	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// ingestCross is the cross-section extent of the saboteurs' slabs: each
// ingest request appends one [ingestCross, 1] column.
const ingestCross = 4

// Options configures a chaos run. The zero value picks a smoke-sized run.
type Options struct {
	// Shape of the store's domain (default 32x32).
	Shape []int
	// Clients is the number of querying goroutines (default 8).
	Clients int
	// PhaseDuration bounds each load phase (default 400ms).
	PhaseDuration time.Duration
	// Seed pins the dataset, fault RNG, and query mix.
	Seed int64
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if len(o.Shape) == 0 {
		o.Shape = []int{32, 32}
	}
	if o.Clients <= 0 {
		o.Clients = 8
	}
	if o.PhaseDuration <= 0 {
		o.PhaseDuration = 400 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// PhaseReport is the outcome of one load phase.
type PhaseReport struct {
	Name     string
	Queries  int64 // HTTP round-trips completed
	OK       int64 // clean 200 answers (checked against the oracle)
	Degraded int64 // 200 answers carrying the degraded flag
	Errors   int64 // non-200 responses (4xx/5xx/503 shed)
	Wrong    int64 // unflagged 200 answers that contradicted the oracle

	// The concurrent-ingest saboteurs' tallies: accepted slabs (200,
	// recorded in the ledger for the committed ⇒ queryable audit), shed
	// slabs (429/503 — provably not committed), and anything else.
	IngestAccepted int64
	IngestShed     int64
	IngestFailed   int64
}

// Result is the full run's outcome.
type Result struct {
	Phases []PhaseReport
	// Rotted lists the block ids whose frames were corrupted on the
	// medium during the faulted phase.
	Rotted []int
	// QuarantinedPeak is the registry size when detection was asserted.
	QuarantinedPeak int
	// IngestVerified counts the cells of accepted slabs that were read
	// back exactly through /v1/ingest/point at the end of the run.
	IngestVerified int
}

// Run executes the harness. A non-nil error means a robustness invariant
// was violated (or the environment failed); the Result is returned either
// way for reporting.
func Run(ctx context.Context, o Options) (*Result, error) {
	o = o.withDefaults()
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	res := &Result{}

	dir, err := os.MkdirTemp("", "shiftsplit-chaos")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "chaos.wav")

	// Build the store and the oracle it must keep agreeing with.
	oracle := dataset.Dense(o.Shape, o.Seed)
	st, err := shiftsplit.CreateStore(shiftsplit.StoreOptions{
		Shape: o.Shape, Form: shiftsplit.Standard, TileBits: 2, Path: path, Durable: true,
	})
	if err != nil {
		return res, err
	}
	if err := st.Materialize(oracle); err != nil {
		_ = st.Close()
		return res, err
	}
	if err := st.Close(); err != nil {
		return res, err
	}

	// Serving stack with the full robustness kit: Faulty slid under the
	// checksum layer, a breaker over the device, a small cache, and the
	// background scrubber sweeping continuously.
	var faulty *storage.Faulty
	serving, err := shiftsplit.OpenServingOpts(path, shiftsplit.ServeOptions{
		CacheBlocks: 8,
		Breaker:     &storage.BreakerOptions{Threshold: 5, Cooldown: 50 * time.Millisecond},
		BaseWrap: func(bs storage.BlockStore) storage.BlockStore {
			faulty = storage.NewFaulty(bs)
			return faulty
		},
	})
	if err != nil {
		return res, err
	}
	defer serving.Close()
	if err := serving.StartScrub(ctx, 25*time.Millisecond, 0); err != nil {
		return res, err
	}

	// The write path under sabotage: an ingester whose admission gate
	// defers to the serving store's health, so quarantine and breaker
	// trips shed appends with 503 instead of committing into a store the
	// operator cannot trust.
	app, err := appender.New([]int{ingestCross, ingestCross}, 1)
	if err != nil {
		return res, err
	}
	ingester, err := ingest.New(app, ingest.Config{
		Dim:           1,
		FlushInterval: time.Millisecond,
		Gate: func() error {
			if h := serving.Health(); h.Status != "ok" {
				return fmt.Errorf("%w: serving store is %s", storage.ErrUnavailable, h.Status)
			}
			return nil
		},
	})
	if err != nil {
		return res, err
	}
	defer func() { _ = ingester.Close() }() // saboteurs are joined before the audit

	srv := server.New(serving, server.Config{MaxConcurrent: 4 * o.Clients, Ingest: ingester})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	srvCtx, stopSrv := context.WithCancel(context.Background())
	defer stopSrv()
	srvDone := make(chan error, 1)
	go func() { srvDone <- srv.Serve(srvCtx, ln) }()
	base := "http://" + ln.Addr().String()

	h := &harness{o: o, base: base, oracle: oracle, logf: logf,
		ledger: &ingestLedger{slabs: make(map[int][]float64)}}

	// Phase 1: healthy. Every answer must be clean and exact.
	if status, err := h.healthz(); err != nil || status != "ok" {
		return res, fmt.Errorf("chaos: initial health = %q, err %v", status, err)
	}
	rep := h.load(ctx, "healthy")
	res.Phases = append(res.Phases, rep)
	if rep.Wrong > 0 {
		return res, fmt.Errorf("chaos: %d wrong answers while healthy", rep.Wrong)
	}
	if rep.OK == 0 {
		return res, fmt.Errorf("chaos: no successful queries while healthy")
	}

	// Phase 2: faulted. Persistent on-media rot plus transient EIO, read
	// bit-rot, and latency — under load.
	res.Rotted, err = rotFrames(path, serving.BlockSize(), 2)
	if err != nil {
		return res, err
	}
	logf("rotted blocks %v on the medium", res.Rotted)
	faulty.FailReadsWithProbability(0.10, o.Seed)
	faulty.RotReadsWithProbability(0.05, o.Seed+1)
	faulty.Delay(100 * time.Microsecond)
	rep = h.load(ctx, "faulted")
	res.Phases = append(res.Phases, rep)
	if rep.Wrong > 0 {
		return res, fmt.Errorf("chaos: %d silently wrong answers under faults", rep.Wrong)
	}

	// Detection: every on-media rotted block must be quarantined (the
	// scrubber keeps sweeping; give it a few passes), and health must say
	// degraded.
	if err := h.waitFor(5*time.Second, func() (bool, string) {
		recs := serving.Quarantined()
		have := make(map[int]bool, len(recs))
		for _, r := range recs {
			have[r.Block] = true
		}
		for _, id := range res.Rotted {
			if !have[id] {
				return false, fmt.Sprintf("block %d not quarantined (registry %v)", id, recs)
			}
		}
		res.QuarantinedPeak = len(recs)
		return true, ""
	}); err != nil {
		return res, fmt.Errorf("chaos: detection failed: %w", err)
	}
	if status, err := h.healthz(); err != nil || status != "degraded" {
		return res, fmt.Errorf("chaos: health under faults = %q, err %v", status, err)
	}
	logf("detection complete: %d quarantined, health degraded", res.QuarantinedPeak)

	// Gate integration: with health degraded the write path must shed —
	// and a shed answer is a guarantee of non-commitment, which the final
	// frontier audit cross-checks.
	body, _ := json.Marshal(map[string]any{
		"shape": []int{ingestCross, 1}, "values": make([]float64, ingestCross),
	})
	if status, resp, err := h.post("/v1/ingest", body); err != nil || status != http.StatusServiceUnavailable {
		return res, fmt.Errorf("chaos: ingest while degraded: status %d, err %v (%s)", status, err, resp)
	}

	// Phase 3: recovered. Stop injecting, heal the medium, and require
	// convergence back to a clean, exact store.
	faulty.FailReadsWithProbability(0, 0)
	faulty.RotReadsWithProbability(0, 0)
	faulty.Delay(0)
	mt, err := shiftsplit.OpenStore(path)
	if err != nil {
		return res, err
	}
	if err := mt.Materialize(oracle); err != nil {
		_ = mt.Close()
		return res, err
	}
	if err := mt.Close(); err != nil {
		return res, err
	}
	// Health convergence needs live traffic: the breaker only half-opens
	// a probe when a request arrives, and the scrubber needs a pass over
	// the healed frames. The probe rng persists across poll rounds so the
	// queries spread over blocks — a single repeated point would be served
	// from cache and never reach an open breaker.
	probeRng := rngFor(o.Seed + 1000)
	if err := h.waitFor(5*time.Second, func() (bool, string) {
		h.point(probeRng, &PhaseReport{})
		status, err := h.healthz()
		if err != nil {
			return false, err.Error()
		}
		return status == "ok", fmt.Sprintf("health %q, quarantine %v", status, serving.Quarantined())
	}); err != nil {
		return res, fmt.Errorf("chaos: store did not converge to healthy: %w", err)
	}
	rep = h.load(ctx, "recovered")
	res.Phases = append(res.Phases, rep)
	if rep.Wrong > 0 {
		return res, fmt.Errorf("chaos: %d wrong answers after recovery", rep.Wrong)
	}
	if rep.Degraded > 0 {
		return res, fmt.Errorf("chaos: %d degraded answers after recovery", rep.Degraded)
	}
	if rep.OK == 0 {
		return res, fmt.Errorf("chaos: no successful queries after recovery")
	}

	// The ingest audit: every accepted slab must be queryable with exact
	// values, and the appender's frontier must equal the accepted count —
	// a shed slab that secretly committed, or an accepted slab that
	// vanished, both break that equality.
	res.IngestVerified, err = h.verifyIngest(ingester)
	if err != nil {
		return res, fmt.Errorf("chaos: ingest audit: %w", err)
	}
	logf("ingest audit: %d accepted slabs, %d cells verified exact",
		len(h.ledger.slabs), res.IngestVerified)

	stopSrv()
	if err := <-srvDone; err != nil {
		return res, fmt.Errorf("chaos: server shutdown: %w", err)
	}
	return res, nil
}

// harness carries the per-run client state.
type harness struct {
	o      Options
	base   string
	oracle *shiftsplit.Array
	logf   func(string, ...any)
	ledger *ingestLedger
}

// ingestLedger records what the saboteurs were told was committed: the
// slab values by frontier offset. It is the write path's oracle.
type ingestLedger struct {
	mu    sync.Mutex
	slabs map[int][]float64 // offset along the append dim → slab values
	dup   string            // set when two 200s claimed the same offset
}

func (l *ingestLedger) record(off int, vals []float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.slabs[off]; ok && l.dup == "" {
		l.dup = fmt.Sprintf("two accepted slabs claim offset %d", off)
	}
	l.slabs[off] = vals
}

func rngFor(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// load runs o.Clients query goroutines for one phase and tallies outcomes.
func (h *harness) load(ctx context.Context, name string) PhaseReport {
	rep := PhaseReport{Name: name}
	var queries, ok, degraded, errs, wrong atomic.Int64
	var accepted, shed, failed atomic.Int64
	deadline := time.Now().Add(h.o.PhaseDuration)
	var wg sync.WaitGroup
	for c := 0; c < h.o.Clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rngFor(seed)
			sub := PhaseReport{}
			for time.Now().Before(deadline) && ctx.Err() == nil {
				if rng.Intn(100) < 30 {
					h.rangeSum(rng, &sub)
				} else {
					h.point(rng, &sub)
				}
			}
			queries.Add(sub.Queries)
			ok.Add(sub.OK)
			degraded.Add(sub.Degraded)
			errs.Add(sub.Errors)
			wrong.Add(sub.Wrong)
		}(h.o.Seed + int64(c))
	}
	// Two ingest saboteurs append concurrently with the query load (and
	// the background scrubber), recording every accepted slab for the
	// end-of-run audit.
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rngFor(seed)
			sub := PhaseReport{}
			for time.Now().Before(deadline) && ctx.Err() == nil {
				h.ingestSlab(rng, &sub)
			}
			accepted.Add(sub.IngestAccepted)
			shed.Add(sub.IngestShed)
			failed.Add(sub.IngestFailed)
		}(h.o.Seed + 500 + int64(c))
	}
	wg.Wait()
	rep.Queries = queries.Load()
	rep.OK = ok.Load()
	rep.Degraded = degraded.Load()
	rep.Errors = errs.Load()
	rep.Wrong = wrong.Load()
	rep.IngestAccepted = accepted.Load()
	rep.IngestShed = shed.Load()
	rep.IngestFailed = failed.Load()
	h.logf("phase %-9s %5d queries: %d ok, %d degraded, %d errors, %d WRONG; ingest %d accepted, %d shed, %d failed",
		name, rep.Queries, rep.OK, rep.Degraded, rep.Errors, rep.Wrong,
		rep.IngestAccepted, rep.IngestShed, rep.IngestFailed)
	return rep
}

// ingestSlab posts one random [ingestCross, 1] slab. A 200 is recorded in
// the ledger (the server promised durability); 429/503 promise
// non-commitment and are tallied as shed; anything else is a failure.
func (h *harness) ingestSlab(rng *rand.Rand, rep *PhaseReport) {
	vals := make([]float64, ingestCross)
	for i := range vals {
		vals[i] = float64(rng.Intn(2000)-1000) / 8
	}
	body, _ := json.Marshal(map[string]any{"shape": []int{ingestCross, 1}, "values": vals})
	status, resp, err := h.post("/v1/ingest", body)
	if err != nil {
		rep.IngestFailed++
		return
	}
	switch status {
	case http.StatusOK:
		var res struct {
			Offset []int `json:"offset"`
		}
		if jerr := json.Unmarshal(resp, &res); jerr != nil || len(res.Offset) != 2 {
			rep.IngestFailed++
			return
		}
		h.ledger.record(res.Offset[1], vals)
		rep.IngestAccepted++
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		rep.IngestShed++
	default:
		rep.IngestFailed++
	}
}

// verifyIngest is the committed ⇒ queryable audit: the appender frontier
// must equal the accepted slab count exactly (so no shed slab committed
// and no accepted slab vanished), and every recorded cell must read back
// exactly through /v1/ingest/point.
func (h *harness) verifyIngest(in *ingest.Ingester) (int, error) {
	h.ledger.mu.Lock()
	defer h.ledger.mu.Unlock()
	if h.ledger.dup != "" {
		return 0, fmt.Errorf("%s", h.ledger.dup)
	}
	used := in.Used()
	if used[1] != len(h.ledger.slabs) {
		return 0, fmt.Errorf("frontier %d != %d accepted slabs — a shed slab committed or an accepted one vanished",
			used[1], len(h.ledger.slabs))
	}
	verified := 0
	for off, vals := range h.ledger.slabs {
		for r := 0; r < ingestCross; r++ {
			body, _ := json.Marshal(map[string]any{"point": []int{r, off}})
			status, resp, err := h.post("/v1/ingest/point", body)
			if err != nil || status != http.StatusOK {
				return verified, fmt.Errorf("accepted slab at offset %d not queryable: status %d, err %v", off, status, err)
			}
			var pr struct {
				Value float64 `json:"value"`
			}
			if err := json.Unmarshal(resp, &pr); err != nil {
				return verified, err
			}
			want := vals[r]
			if math.Abs(pr.Value-want) > tolerance*math.Max(1, math.Abs(want)) {
				return verified, fmt.Errorf("cell [%d %d] = %v, ingest promised %v", r, off, pr.Value, want)
			}
			verified++
		}
	}
	return verified, nil
}

// answer is the slice of the JSON responses the oracle check needs.
type answer struct {
	Value    float64 `json:"value"`
	Sum      float64 `json:"sum"`
	Degraded bool    `json:"degraded"`
}

const tolerance = 1e-6

// check classifies one response against the expected value.
func check(rep *PhaseReport, status int, body []byte, want float64, got func(answer) float64) {
	rep.Queries++
	if status != http.StatusOK {
		rep.Errors++
		return
	}
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		rep.Wrong++ // a 200 that doesn't parse is as bad as a wrong value
		return
	}
	if a.Degraded {
		rep.Degraded++
		return
	}
	g := got(a)
	if math.Abs(g-want) > tolerance*math.Max(1, math.Abs(want)) {
		rep.Wrong++
		return
	}
	rep.OK++
}

func (h *harness) point(rng *rand.Rand, rep *PhaseReport) {
	shape := h.oracle.Shape()
	p := make([]int, len(shape))
	for i, n := range shape {
		p[i] = rng.Intn(n)
	}
	body, _ := json.Marshal(map[string]any{"point": p})
	status, resp, err := h.post("/v1/point", body)
	if err != nil {
		rep.Queries++
		rep.Errors++
		return
	}
	check(rep, status, resp, h.oracle.At(p...), func(a answer) float64 { return a.Value })
}

func (h *harness) rangeSum(rng *rand.Rand, rep *PhaseReport) {
	shape := h.oracle.Shape()
	start := make([]int, len(shape))
	extent := make([]int, len(shape))
	for i, n := range shape {
		start[i] = rng.Intn(n / 2)
		extent[i] = 1 + rng.Intn(n-start[i])
	}
	want := h.oracle.SumRange(start, extent)
	body, _ := json.Marshal(map[string]any{"start": start, "extent": extent})
	status, resp, err := h.post("/v1/rangesum", body)
	if err != nil {
		rep.Queries++
		rep.Errors++
		return
	}
	check(rep, status, resp, want, func(a answer) float64 { return a.Sum })
}

func (h *harness) post(route string, body []byte) (int, []byte, error) {
	resp, err := http.Post(h.base+route, "application/json", strings.NewReader(string(body)))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	return resp.StatusCode, buf, err
}

func (h *harness) healthz() (string, error) {
	resp, err := http.Get(h.base + "/v1/healthz")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var hr struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		return "", err
	}
	return hr.Status, nil
}

// waitFor polls cond until it holds or the deadline passes; the last
// failure detail is reported on timeout.
func (h *harness) waitFor(d time.Duration, cond func() (bool, string)) error {
	deadline := time.Now().Add(d)
	detail := ""
	for time.Now().Before(deadline) {
		var ok bool
		if ok, detail = cond(); ok {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("timed out after %s: %s", d, detail)
}

// rotFrames flips one payload byte in n distinct written frames of a
// durable store's data file and returns their block ids.
func rotFrames(path string, blockSize, n int) ([]int, error) {
	frameBytes := 8 * (blockSize + storage.ChecksumOverhead)
	fs, err := storage.OpenFileStore(path, blockSize+storage.ChecksumOverhead)
	if err != nil {
		return nil, err
	}
	chk, err := storage.NewChecksummed(fs)
	if err != nil {
		_ = fs.Close()
		return nil, err
	}
	total, err := fs.NumBlocks()
	if err != nil {
		_ = fs.Close()
		return nil, err
	}
	var ids []int
	for id := 0; id < total && len(ids) < n; id++ {
		if _, version, err := chk.ReadMeta(id); err == nil && version != storage.FrameUnwritten {
			ids = append(ids, id)
		}
	}
	if err := fs.Close(); err != nil {
		return nil, err
	}
	if len(ids) < n {
		return nil, fmt.Errorf("chaos: only %d written frames, need %d", len(ids), n)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	for _, id := range ids {
		off := int64(id)*int64(frameBytes) + 3
		var b [1]byte
		if _, err := f.ReadAt(b[:], off); err != nil {
			return nil, err
		}
		b[0] ^= 0x40
		if _, err := f.WriteAt(b[:], off); err != nil {
			return nil, err
		}
	}
	return ids, nil
}
