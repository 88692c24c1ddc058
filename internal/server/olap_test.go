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

// bandStore builds the benchmark's geometry: a 1024² standard-form store at
// TileBits 4 (69 tiles per dimension, 4 761 blocks), durable and versioned,
// built by TransformChunked and reopened for serving with the cache off, so
// every block a request needs is a device read. mapped serves it from a
// memory mapping instead of pread.
func bandStore(t testing.TB, mapped bool) *shiftsplit.Store {
	t.Helper()
	shape := []int{1024, 1024}
	path := filepath.Join(t.TempDir(), "band.wav")
	st, err := shiftsplit.CreateStore(shiftsplit.StoreOptions{
		Shape: shape, Form: shiftsplit.Standard, TileBits: 4, Path: path,
		Durable: true, Versioned: true, Mapped: mapped,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.TransformChunked(dataset.Dense(shape, 7), 6); err != nil {
		st.Close()
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	serving, err := shiftsplit.OpenServing(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { serving.Close() })
	return serving
}

// TestOLAPReadsOnlyItsBand holds every route to the blocks of its band, on
// pread and mapped and along both dimensions: the response's blocks_read is
// the exact count and equals the device reads, and a 413 reads nothing.
// A rollup reads the top tile along its dimension times the cross-section,
// a slice one tile per band of its path, a dice its run's subtree and path.
func TestOLAPReadsOnlyItsBand(t *testing.T) {
	cases := []struct {
		route, body string
		blocks      int
	}{
		{"rollup", `{"dim":%d}`, 69},
		{"slice", `{"dim":%d,"index":0}`, 207},
		{"slice", `{"dim":%d,"index":5}`, 207},
		{"slice", `{"dim":%d,"index":513}`, 207},
		{"slice", `{"dim":%d,"index":1023}`, 207},
		{"dice", `{"dim":%d,"start":4,"length":4}`, 207},
		{"dice", `{"dim":%d,"start":128,"length":64}`, 414},
		{"dice", `{"dim":%d,"start":960,"length":32}`, 276},
	}
	for _, mapped := range []bool{false, true} {
		st := bandStore(t, mapped)
		ts := newTestServer(t, st, Config{})
		for dim := 0; dim < 2; dim++ {
			for _, c := range cases {
				body := fmt.Sprintf(c.body, dim)
				reads := st.Stats().Reads
				resp, b := postJSON(t, ts.URL+"/v1/olap/"+c.route, body)
				reads = st.Stats().Reads - reads
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("mapped=%v %s %s: status %d: %s", mapped, c.route, body, resp.StatusCode, b)
				}
				var or olapResponse
				if err := json.Unmarshal(b, &or); err != nil {
					t.Fatal(err)
				}
				if or.BlocksRead != c.blocks || int64(or.BlocksRead) != reads {
					t.Errorf("mapped=%v %s %s: blocks_read %d, device reads %d, want %d", mapped, c.route, body, or.BlocksRead, reads, c.blocks)
				}
			}
			body := fmt.Sprintf(`{"dim":%d,"start":0,"length":128}`, dim) // 131 072 cells
			reads := st.Stats().Reads
			resp, b := postJSON(t, ts.URL+"/v1/olap/dice", body)
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("mapped=%v dice %s: status %d, want 413: %s", mapped, body, resp.StatusCode, b)
			}
			if reads = st.Stats().Reads - reads; reads != 0 {
				t.Errorf("mapped=%v dice %s: the 413 read %d blocks", mapped, body, reads)
			}
			// Half the domain is past MaxResultCells, so ask the library.
			var blocks int
			err := st.WithSnapshot(func(snap *shiftsplit.Snapshot) (err error) {
				reads = st.Stats().Reads
				_, blocks, err = snap.OLAP(shiftsplit.OLAPOp{Op: "dice", Dim: dim, Start: 512, Length: 512})
				return err
			})
			if reads = st.Stats().Reads - reads; err != nil || blocks != 2415 || int64(blocks) != reads {
				t.Errorf("mapped=%v dice [512,+512) along %d: %d blocks, device reads %d, want 2415 (%v)", mapped, dim, blocks, reads, err)
			}
		}
	}
}

// readGate parks the first device read issued while armed until release is
// closed; every other read passes straight through. BaseWrap slides it
// under the durable store's checksum layer.
type readGate struct {
	storage.BlockStore
	armed           atomic.Bool
	parked, release chan struct{}
}

func (g *readGate) hold() {
	if g.armed.CompareAndSwap(true, false) {
		close(g.parked)
		<-g.release
	}
}

func (g *readGate) ReadBlock(id int, buf []float64) error {
	g.hold()
	return g.BlockStore.ReadBlock(id, buf)
}

func (g *readGate) ReadBlocks(ids []int, bufs [][]float64) error {
	g.hold()
	return storage.ReadBlocksOf(g.BlockStore, ids, bufs)
}

// TestOLAPRequestsDoNotSerialise wedges one OLAP request in its device read
// (the cache is off, so its read reaches the device) and requires a second
// OLAP request to complete meanwhile: no server-wide lock is held across an
// OLAP read.
func TestOLAPRequestsDoNotSerialise(t *testing.T) {
	gate := &readGate{parked: make(chan struct{}), release: make(chan struct{})}
	st, err := shiftsplit.OpenServingOpts(buildVersionedFile(t, []int{32, 32}), shiftsplit.ServeOptions{
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
	// the wedged request holding the store.
	release := sync.OnceFunc(func() { close(gate.release) })
	defer release()
	ts := newTestServer(t, st, Config{})

	gate.armed.Store(true)
	first := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/olap/rollup", "application/json", strings.NewReader(`{"dim":0}`))
		if err != nil {
			first <- 0
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	select {
	case <-gate.parked:
	case <-time.After(10 * time.Second):
		t.Fatal("the first OLAP request never reached the device")
	}

	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post(ts.URL+"/v1/olap/slice", "application/json", strings.NewReader(`{"dim":1,"index":3}`))
	if err != nil {
		t.Fatalf("a second OLAP request did not complete while the first was wedged in its read: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second OLAP request: status %d", resp.StatusCode)
	}
	release()
	if code := <-first; code != http.StatusOK {
		t.Fatalf("wedged OLAP request: status %d after release", code)
	}
}
