package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/shiftsplit/shiftsplit"
	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// buildVersionedStore materializes a versioned durable store and reopens it
// for serving: the configuration where queries pin MVCC epoch snapshots.
func buildVersionedStore(t testing.TB, shape []int, cacheBlocks int) *shiftsplit.Store {
	t.Helper()
	serving, err := shiftsplit.OpenServing(buildVersionedFile(t, shape), cacheBlocks, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { serving.Close() })
	return serving
}

// buildVersionedFile materializes a versioned durable store and closes it,
// returning its path.
func buildVersionedFile(t testing.TB, shape []int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cube.wav")
	st, err := shiftsplit.CreateStore(shiftsplit.StoreOptions{
		Shape: shape, Form: shiftsplit.Standard, TileBits: 2, Path: path,
		Durable: true, Versioned: true,
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

// TestEpochReportingEndpoints checks the satellite-6 observability surface:
// query responses carry the pinned epoch, /v1/stats reports the epochs
// section, and a maintenance flip is visible in both.
func TestEpochReportingEndpoints(t *testing.T) {
	shape := []int{32, 32}
	st := buildVersionedStore(t, shape, 64)
	ts := newTestServer(t, st, Config{})

	resp, body := postJSON(t, ts.URL+"/v1/point", `{"point":[5,7]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("point status %d: %s", resp.StatusCode, body)
	}
	var pr pointResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	wantEpoch := st.CurrentEpoch()
	if wantEpoch == 0 {
		t.Fatal("versioned store at epoch 0 after materialize")
	}
	if pr.Epoch != wantEpoch {
		t.Fatalf("point response epoch %d, store at %d", pr.Epoch, wantEpoch)
	}

	resp, body = postJSON(t, ts.URL+"/v1/rangesum", `{"start":[0,0],"extent":[8,8]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("range-sum status %d: %s", resp.StatusCode, body)
	}
	var rr rangeResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Epoch != wantEpoch {
		t.Fatalf("range response epoch %d, store at %d", rr.Epoch, wantEpoch)
	}

	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats statsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	statsResp.Body.Close()
	if stats.Epochs == nil {
		t.Fatal("stats of a versioned store carry no epochs section")
	}
	if stats.Epochs.Epoch != wantEpoch {
		t.Fatalf("stats epoch %d, store at %d", stats.Epochs.Epoch, wantEpoch)
	}
	if stats.Epochs.Pinned != 0 {
		t.Fatalf("stats report %d pinned snapshots with no request in flight", stats.Epochs.Pinned)
	}

	// A maintenance flip must show up in subsequent responses.
	delta := dataset.Dense([]int{8, 8}, 11)
	if err := st.MergeBlock(shiftsplit.CubeBlock(3, 1, 2), shiftsplit.Transform(delta, shiftsplit.Standard)); err != nil {
		t.Fatal(err)
	}
	if got := st.CurrentEpoch(); got != wantEpoch+1 {
		t.Fatalf("epoch after merge = %d, want %d", got, wantEpoch+1)
	}
	resp, body = postJSON(t, ts.URL+"/v1/point", `{"point":[5,7]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-flip point status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Epoch != wantEpoch+1 {
		t.Fatalf("post-flip point response epoch %d, want %d", pr.Epoch, wantEpoch+1)
	}
}

// TestOLAPCacheInvalidatesOnFlip: the in-memory OLAP cube is epoch-keyed —
// a maintenance flip makes the next OLAP request reload instead of serving
// the stale pre-flip cube.
func TestOLAPCacheInvalidatesOnFlip(t *testing.T) {
	shape := []int{16, 16}
	st := buildVersionedStore(t, shape, 64)
	ts := newTestServer(t, st, Config{})

	olap := func() []float64 {
		resp, body := postJSON(t, ts.URL+"/v1/olap/rollup", `{"dim":0}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("rollup status %d: %s", resp.StatusCode, body)
		}
		var or olapResponse
		if err := json.Unmarshal(body, &or); err != nil {
			t.Fatal(err)
		}
		return or.Values
	}
	before := olap()

	// Merge a delta that changes the rolled-up values.
	delta := dataset.Dense([]int{4, 4}, 3)
	if err := st.MergeBlock(shiftsplit.CubeBlock(2, 1, 1), shiftsplit.Transform(delta, shiftsplit.Standard)); err != nil {
		t.Fatal(err)
	}
	after := olap()
	if len(before) != len(after) {
		t.Fatalf("rollup shape changed: %d -> %d", len(before), len(after))
	}
	same := true
	for i := range before {
		if before[i] != after[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("OLAP response unchanged after a flip — stale epoch-0-style cube cache")
	}
}

// writeGate blocks device writes while engaged and lets reads through: a
// slow medium in the middle of a commit. BaseWrap slides it under the
// durable store's checksum layer.
type writeGate struct {
	storage.BlockStore
	gating  atomic.Bool
	release chan struct{}
	blocked atomic.Int64
}

func (g *writeGate) WriteBlock(id int, data []float64) error {
	if g.gating.Load() {
		g.blocked.Add(1)
		<-g.release
	}
	return g.BlockStore.WriteBlock(id, data)
}

// TestQueriesProgressDuringWedgedFlip is serve-during-maintenance through
// the real handlers: while a MergeBlock is wedged on its first device write
// (holding the journaled write leg), point and range-sum requests must keep
// answering from the pinned pre-merge epoch, with the pre-merge values.
// Once the commit is released the next answer carries the flipped epoch.
// The serve cache is off, so every request reads the device.
func TestQueriesProgressDuringWedgedFlip(t *testing.T) {
	shape := []int{32, 32}
	gate := &writeGate{release: make(chan struct{})}
	st, err := shiftsplit.OpenServingOpts(buildVersionedFile(t, shape), shiftsplit.ServeOptions{
		BaseWrap: func(bs storage.BlockStore) storage.BlockStore {
			gate.BlockStore = bs
			return gate
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Deferred after Close so it runs first: a failing test must not leave
	// Close waiting on the wedged commit.
	release := sync.OnceFunc(func() {
		gate.gating.Store(false)
		close(gate.release)
	})
	defer release()
	ts := newTestServer(t, st, Config{})
	merge := func() error {
		delta := dataset.Dense([]int{8, 8}, 11)
		return st.MergeBlock(shiftsplit.CubeBlock(3, 1, 2), shiftsplit.Transform(delta, shiftsplit.Standard))
	}
	// A merge drops the materialized single-block point path, which rounds
	// differently from the root path; one unwedged merge up front puts the
	// oracle on the path the wedged phase takes, so answers match bit for bit.
	if err := merge(); err != nil {
		t.Fatal(err)
	}

	// query returns a request's answer (value or sum) and epoch.
	type answer struct {
		Value, Sum float64
		Epoch      uint64
	}
	query := func(i int) (answer, error) {
		url, body := ts.URL+"/v1/point", fmt.Sprintf(`{"point":[%d,%d]}`, i%32, (7*i)%32)
		if i%2 == 1 {
			url, body = ts.URL+"/v1/rangesum", fmt.Sprintf(`{"start":[%d,%d],"extent":[8,%d]}`, i%24, (3*i)%16, 1+i%16)
		}
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			return answer{}, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return answer{}, fmt.Errorf("%s %s: status %d", url, body, resp.StatusCode)
		}
		var a answer
		return a, json.NewDecoder(resp.Body).Decode(&a)
	}

	const readers, perReader = 8, 25
	oracle := make([]answer, readers*perReader)
	for i := range oracle {
		if oracle[i], err = query(i); err != nil {
			t.Fatal(err)
		}
	}
	preEpoch := st.CurrentEpoch()

	gate.gating.Store(true)
	mergeDone := make(chan error, 1)
	go func() { mergeDone <- merge() }()
	deadline := time.After(10 * time.Second)
	for gate.blocked.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("the merge never reached the gated device write")
		case <-time.After(time.Millisecond):
		}
	}

	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for j := 0; j < perReader; j++ {
				i := r*perReader + j
				got, err := query(i)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if got != oracle[i] {
					t.Errorf("reader %d, request %d: %+v during the wedged merge, want %+v", r, i, got, oracle[i])
					return
				}
			}
		}(r)
	}
	readersDone := make(chan struct{})
	go func() { wg.Wait(); close(readersDone) }()
	select {
	case <-readersDone:
	case <-time.After(30 * time.Second):
		t.Fatal("queries starved while the merge held the write leg")
	}
	if got := st.CurrentEpoch(); got != preEpoch {
		t.Fatalf("epoch flipped to %d while the commit was wedged", got)
	}

	release()
	if err := <-mergeDone; err != nil {
		t.Fatalf("merge after release: %v", err)
	}
	got, err := query(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != preEpoch+1 {
		t.Fatalf("post-release response epoch %d, want %d", got.Epoch, preEpoch+1)
	}
}
