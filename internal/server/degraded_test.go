package server

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/shiftsplit/shiftsplit"
	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
)

// buildDurableFile materializes a durable store on disk and returns its
// path (closed, ready to reopen for serving).
func buildDurableFile(t testing.TB, shape []int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cube.wav")
	st, err := shiftsplit.CreateStore(shiftsplit.StoreOptions{
		Shape: shape, Form: shiftsplit.Standard, TileBits: 2, Path: path, Durable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Materialize(dataset.Dense(shape, 7)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// rotFrame flips one payload byte of written frame id in a durable store's
// data file.
func rotFrame(t testing.TB, path string, blockSize, id int) {
	t.Helper()
	fs, err := storage.OpenFileStore(path, blockSize+storage.ChecksumOverhead)
	if err != nil {
		t.Fatal(err)
	}
	chk, err := storage.NewChecksummed(fs)
	if err != nil {
		fs.Close()
		t.Fatal(err)
	}
	_, version, err := chk.ReadMeta(id)
	fs.Close()
	if err != nil || version == storage.FrameUnwritten {
		t.Fatalf("frame %d is not a written frame to rot (%v)", id, err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	off := int64(id)*int64(8*(blockSize+storage.ChecksumOverhead)) + 3
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

func getJSON(t testing.TB, url string, dst any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestDegradedServingEndToEnd drives the whole degraded pipeline over HTTP:
// rot a frame, scrub it into quarantine, and watch the server keep
// answering — flagged — while healthz and stats report the damage.
func TestDegradedServingEndToEnd(t *testing.T) {
	shape := []int{16, 16}
	path := buildDurableFile(t, shape)
	st, err := shiftsplit.OpenServing(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ts := newTestServer(t, st, Config{})

	var h healthResponse
	getJSON(t, ts.URL+"/v1/healthz", &h)
	if h.Status != "ok" {
		t.Fatalf("healthy store reports %+v", h)
	}

	// The block holding coefficients (15,0) and (7,0): a rollup over
	// dimension 1 reads it, as does a range sum over rows 14 and 15, but the
	// slice at row 0 does not (row 0's path along dimension 0 is 0,1,2,4,8).
	bad, _ := tile.NewStandard([]int{4, 4}, 2).Locate([]int{15, 0})
	rotFrame(t, path, st.BlockSize(), bad)
	if n, err := st.ScrubOnce(context.Background()); err != nil || n != 1 {
		t.Fatalf("scrub: n=%d err=%v", n, err)
	}

	getJSON(t, ts.URL+"/v1/healthz", &h)
	if h.Status != "degraded" || h.Quarantined != 1 {
		t.Fatalf("healthz after scrub = %+v", h)
	}

	// A range sum over rows 14 and 15 touches the quarantined block: it
	// still answers (200), carries the degraded flag, and is not NaN/Inf.
	resp, body := postJSON(t, ts.URL+"/v1/rangesum", `{"start":[14,0],"extent":[2,16]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded rangesum status %d: %s", resp.StatusCode, body)
	}
	var rr rangeResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.Degraded {
		t.Fatalf("answer over quarantined block %d not flagged degraded: %s", bad, body)
	}
	if math.IsNaN(rr.Sum) || math.IsInf(rr.Sum, 0) {
		t.Fatalf("degraded sum is not finite: %v", rr.Sum)
	}

	// OLAP flags per request, as point and range sum do: a rollup whose
	// band holds the quarantined block is degraded, a slice whose band
	// avoids it is not.
	olapDegraded := func(route, body string) bool {
		t.Helper()
		resp, b := postJSON(t, ts.URL+"/v1/olap/"+route, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", route, body, resp.StatusCode, b)
		}
		var or olapResponse
		if err := json.Unmarshal(b, &or); err != nil {
			t.Fatal(err)
		}
		return or.Degraded
	}
	if !olapDegraded("rollup", `{"dim":1}`) {
		t.Fatal("rollup over the quarantined block not flagged degraded")
	}
	if olapDegraded("slice", `{"dim":0,"index":0}`) {
		t.Fatal("slice clear of the quarantined block flagged degraded")
	}

	var stats statsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Health.Status != "degraded" {
		t.Fatalf("stats health = %+v", stats.Health)
	}
	if len(stats.Quarantined) != 1 || stats.Quarantined[0].Block != bad {
		t.Fatalf("stats quarantine = %+v, want block %d", stats.Quarantined, bad)
	}
	if stats.Scrub == nil || stats.Scrub.Passes != 1 {
		t.Fatalf("stats scrub = %+v", stats.Scrub)
	}

	// Heal: repair rolls the block forward from the retained batch (the
	// serving store was freshly opened, so no batch is retained — use
	// re-materialize via a maintenance handle instead of asserting repair).
	// Here the cheap heal is a clean rewrite through the serving store's
	// write path; re-scrub releases the quarantine.
	mt, err := shiftsplit.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := mt.Materialize(dataset.Dense(shape, 7)); err != nil {
		t.Fatal(err)
	}
	if err := mt.Close(); err != nil {
		t.Fatal(err)
	}
	// The serving store's registry is its own; a scrub pass observes the
	// healed medium and releases the block.
	if n, err := st.ScrubOnce(context.Background()); err != nil || n != 0 {
		t.Fatalf("post-heal scrub: n=%d err=%v", n, err)
	}
	getJSON(t, ts.URL+"/v1/healthz", &h)
	if h.Status != "ok" {
		t.Fatalf("healthz after heal = %+v", h)
	}

	if olapDegraded("rollup", `{"dim":1}`) || olapDegraded("slice", `{"dim":0,"index":0}`) {
		t.Fatal("OLAP answer flagged degraded after the heal")
	}
}

// TestBreakerOpenMapsTo503 wires a Faulty under a breaker-equipped serving
// store: once sustained failures trip the circuit, queries fail fast with
// 503 + Retry-After instead of hammering the dead backend.
func TestBreakerOpenMapsTo503(t *testing.T) {
	shape := []int{16, 16}
	path := buildDurableFile(t, shape)
	var faulty *storage.Faulty
	st, err := shiftsplit.OpenServingOpts(path, shiftsplit.ServeOptions{
		Breaker: &storage.BreakerOptions{Threshold: 1, Cooldown: time.Hour},
		BaseWrap: func(bs storage.BlockStore) storage.BlockStore {
			faulty = storage.NewFaulty(bs)
			return faulty
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ts := newTestServer(t, st, Config{})

	// Healthy first: the store answers.
	resp, body := postJSON(t, ts.URL+"/v1/point", `{"point":[3,3]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy point status %d: %s", resp.StatusCode, body)
	}

	// Kill the device. The first failing query trips the breaker (500);
	// from then on queries shed with 503 and a Retry-After hint.
	faulty.FailReadAfter(1)
	resp, body = postJSON(t, ts.URL+"/v1/point", `{"point":[3,3]}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("tripping query status %d: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/point", `{"point":[5,5]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open-circuit query status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	var h healthResponse
	getJSON(t, ts.URL+"/v1/healthz", &h)
	if h.Status != "degraded" || h.Breaker != "open" {
		t.Fatalf("healthz with open breaker = %+v", h)
	}
}

// TestTransientReadErrorSurfacesUnretried pins the DESIGN §12 row for a
// transient device error on the read path: nothing in the serving stack
// retries it. The query answers 500 after exactly one device attempt, the
// breaker counts the failure, and the next query after the device heals
// answers 200.
func TestTransientReadErrorSurfacesUnretried(t *testing.T) {
	shape := []int{16, 16}
	path := buildDurableFile(t, shape)
	var faulty *storage.Faulty
	st, err := shiftsplit.OpenServingOpts(path, shiftsplit.ServeOptions{
		Breaker: &storage.BreakerOptions{Threshold: 2, Cooldown: time.Hour},
		BaseWrap: func(bs storage.BlockStore) storage.BlockStore {
			faulty = storage.NewFaulty(bs)
			return faulty
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ts := newTestServer(t, st, Config{})

	faulty.FailReadAfter(1)
	resp, body := postJSON(t, ts.URL+"/v1/point", `{"point":[3,3]}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("faulted point status %d: %s", resp.StatusCode, body)
	}
	// The trigger fails every read once it fires, so a retry anywhere in
	// the stack would show up as a second injected fault.
	if n := faulty.InjectedFaults(); n != 1 {
		t.Fatalf("device saw %d failed reads for one query, want 1 (no retry)", n)
	}
	if state, _, _, _ := st.BreakerStats(); state != "closed" {
		t.Fatalf("breaker %s after one failure under threshold 2", state)
	}

	// The device heals: the next query answers from the same store.
	faulty.FailReadAfter(0)
	resp, body = postJSON(t, ts.URL+"/v1/point", `{"point":[3,3]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healed point status %d: %s", resp.StatusCode, body)
	}

	// Two consecutive transient failures reach the threshold: the breaker
	// counted each one.
	faulty.FailReadAfter(1)
	for _, p := range []string{`{"point":[5,5]}`, `{"point":[9,9]}`} {
		if resp, body = postJSON(t, ts.URL+"/v1/point", p); resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("faulted point %s status %d: %s", p, resp.StatusCode, body)
		}
	}
	if state, trips, _, _ := st.BreakerStats(); state != "open" || trips != 1 {
		t.Fatalf("breaker state=%s trips=%d after two transient failures, want open/1", state, trips)
	}
}

// TestMappedFaultAnswersNotCrashes truncates a served mapped store's data
// file under its live mapping: the point that next touches a mapped page
// faults, and the server answers it with an error status or a degraded
// answer, then goes on serving.
func TestMappedFaultAnswersNotCrashes(t *testing.T) {
	shape := []int{16, 16}
	path := filepath.Join(t.TempDir(), "cube.wav")
	st, err := shiftsplit.CreateStore(shiftsplit.StoreOptions{
		Shape: shape, Form: shiftsplit.NonStandard, TileBits: 2, Path: path, Durable: true, Mapped: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Materialize(dataset.Dense(shape, 7)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	served, err := shiftsplit.OpenServing(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer served.Close()
	ts := newTestServer(t, served, Config{})
	if resp, body := postJSON(t, ts.URL+"/v1/point", `{"point":[3,5]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy point status %d: %s", resp.StatusCode, body)
	}
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{`{"point":[3,5]}`, `{"point":[12,9]}`} {
		resp, body := postJSON(t, ts.URL+"/v1/point", p)
		var pr pointResponse
		if resp.StatusCode == http.StatusOK && (json.Unmarshal(body, &pr) != nil || !pr.Degraded) {
			t.Fatalf("point %s over a truncated mapping answered 200 undegraded: %s", p, body)
		}
	}
	var h healthResponse
	getJSON(t, ts.URL+"/v1/healthz", &h) // the process, and its server, live on
}
