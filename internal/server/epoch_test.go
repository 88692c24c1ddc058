package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"slices"
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

// TestOLAPFollowsFlip: every OLAP request pins its own snapshot, so the
// response after a maintenance flip carries the new epoch and the new values.
func TestOLAPFollowsFlip(t *testing.T) {
	shape := []int{16, 16}
	st := buildVersionedStore(t, shape, 64)
	ts := newTestServer(t, st, Config{})

	olap := func() olapResponse {
		resp, body := postJSON(t, ts.URL+"/v1/olap/rollup", `{"dim":0}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("rollup status %d: %s", resp.StatusCode, body)
		}
		var or olapResponse
		if err := json.Unmarshal(body, &or); err != nil {
			t.Fatal(err)
		}
		return or
	}
	before := olap()
	if before.Epoch != st.CurrentEpoch() {
		t.Fatalf("rollup answered from epoch %d, store at %d", before.Epoch, st.CurrentEpoch())
	}

	// Merge a delta that changes the rolled-up values.
	delta := dataset.Dense([]int{4, 4}, 3)
	if err := st.MergeBlock(shiftsplit.CubeBlock(2, 1, 1), shiftsplit.Transform(delta, shiftsplit.Standard)); err != nil {
		t.Fatal(err)
	}
	after := olap()
	if after.Epoch != before.Epoch+1 {
		t.Fatalf("rollup after the flip answered from epoch %d, want %d", after.Epoch, before.Epoch+1)
	}
	if len(before.Values) != len(after.Values) {
		t.Fatalf("rollup shape changed: %d -> %d", len(before.Values), len(after.Values))
	}
	if slices.Equal(before.Values, after.Values) {
		t.Fatal("rollup values unchanged after a flip that changes them")
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
// (holding the journaled write leg), point, range-sum and OLAP requests must
// keep answering from the pinned pre-merge epoch, with the pre-merge values.
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

	// query returns a request's response body and epoch. Every fifth
	// request is a point, a range sum, a rollup, a slice or a dice; on one
	// epoch with the cache off each body, blocks_read included, is exact.
	type answer struct {
		Body  string
		Epoch uint64
	}
	query := func(i int) (answer, error) {
		route, body := "point", fmt.Sprintf(`{"point":[%d,%d]}`, i%32, (7*i)%32)
		switch i % 5 {
		case 1:
			route, body = "rangesum", fmt.Sprintf(`{"start":[%d,%d],"extent":[8,%d]}`, i%24, (3*i)%16, 1+i%16)
		case 2:
			route, body = "olap/rollup", fmt.Sprintf(`{"dim":%d}`, i%2)
		case 3:
			route, body = "olap/slice", fmt.Sprintf(`{"dim":%d,"index":%d}`, i%2, (5*i)%32)
		case 4:
			route, body = "olap/dice", fmt.Sprintf(`{"dim":%d,"start":%d,"length":8}`, i%2, 8*(i%4))
		}
		resp, err := http.Post(ts.URL+"/v1/"+route, "application/json", strings.NewReader(body))
		if err != nil {
			return answer{}, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return answer{}, err
		}
		if resp.StatusCode != http.StatusOK {
			return answer{}, fmt.Errorf("%s %s: status %d: %s", route, body, resp.StatusCode, b)
		}
		a := answer{Body: string(b)}
		return a, json.Unmarshal(b, &a)
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
