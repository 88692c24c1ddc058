package transform

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
)

func workerCounts() []int {
	counts := []int{1, 2, 3}
	if n := runtime.NumCPU(); n > 3 {
		counts = append(counts, n)
	}
	return counts
}

// readAll returns every block of the store, for exact comparison.
func readAll(t *testing.T, st *tile.Store) [][]float64 {
	t.Helper()
	out := make([][]float64, st.Tiling().NumBlocks())
	for b := range out {
		data, err := st.ReadTile(b)
		if err != nil {
			t.Fatal(err)
		}
		out[b] = data
	}
	return out
}

func requireIdentical(t *testing.T, label string, want, got [][]float64) {
	t.Helper()
	for b := range want {
		for s := range want[b] {
			if want[b][s] != got[b][s] {
				t.Fatalf("%s: block %d slot %d: parallel %v != sequential %v (not bit-identical)",
					label, b, s, got[b][s], want[b][s])
			}
		}
	}
}

// TestChunkedStandardParallelBitIdentical runs the standard-form engine at
// several worker counts and requires bit-identical coefficients, identical
// engine stats, and identical block I/O counts versus the sequential run.
func TestChunkedStandardParallelBitIdentical(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		var src *ndarray.Array
		if sparse {
			src = dataset.Sparse([]int{32, 32}, 0.1, 5)
		} else {
			src = dataset.Dense([]int{32, 32}, 5)
		}
		run := func(workers int) ([][]float64, Stats, storage.Stats) {
			st, counting := countedStore(t, tile.NewStandard([]int{5, 5}, 2))
			stats, err := ChunkedStandard(src, 2, st, workers)
			if err != nil {
				t.Fatal(err)
			}
			return readAll(t, st), stats, counting.Stats()
		}
		wantBlocks, wantStats, wantIO := run(1)
		for _, workers := range workerCounts()[1:] {
			label := fmt.Sprintf("sparse=%v workers=%d", sparse, workers)
			gotBlocks, gotStats, gotIO := run(workers)
			requireIdentical(t, label, wantBlocks, gotBlocks)
			if gotStats != wantStats {
				t.Errorf("%s: stats %+v, sequential %+v", label, gotStats, wantStats)
			}
			if gotIO != wantIO {
				t.Errorf("%s: block I/O %+v, sequential %+v", label, gotIO, wantIO)
			}
		}
	}
}

// TestChunkedNonStandardParallelBitIdentical covers the non-standard form
// on dense and sparse data.
func TestChunkedNonStandardParallelBitIdentical(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		shape := []int{32, 32}
		var src *ndarray.Array
		if sparse {
			src = dataset.Sparse(shape, 0.1, 7)
		} else {
			src = dataset.Dense(shape, 7)
		}
		run := func(workers int) ([][]float64, Stats, storage.Stats) {
			st, counting := countedStore(t, tile.NewNonStandard(5, 2, 2))
			stats, err := ChunkedNonStandard(src, 2, st, workers)
			if err != nil {
				t.Fatal(err)
			}
			return readAll(t, st), stats, counting.Stats()
		}
		wantBlocks, wantStats, wantIO := run(1)
		for _, workers := range workerCounts()[1:] {
			label := fmt.Sprintf("sparse=%v workers=%d", sparse, workers)
			gotBlocks, gotStats, gotIO := run(workers)
			requireIdentical(t, label, wantBlocks, gotBlocks)
			if gotStats != wantStats {
				t.Errorf("%s: stats %+v, sequential %+v", label, gotStats, wantStats)
			}
			if gotIO != wantIO {
				t.Errorf("%s: block I/O %+v, sequential %+v", label, gotIO, wantIO)
			}
		}
	}
}

// writeRecorder is a block store that logs every physical block write, id
// and bits, in the order the device sees it.
type writeRecorder struct {
	storage.BlockStore
	ids    []int
	frames [][]float64
}

func (w *writeRecorder) WriteBlock(id int, data []float64) error {
	w.ids = append(w.ids, id)
	w.frames = append(w.frames, append([]float64(nil), data...))
	return w.BlockStore.WriteBlock(id, data)
}

// recordOn runs one maintenance operation at a worker count on a fresh
// recording store under tiling.
func recordOn(tiling tile.Tiling, run func(st *tile.Store, workers int) error) func(t *testing.T, workers int) *writeRecorder {
	return func(t *testing.T, workers int) *writeRecorder {
		rec := &writeRecorder{BlockStore: storage.NewMemStore(tiling.BlockSize())}
		st, err := tile.NewStore(rec, tiling)
		if err != nil {
			t.Fatal(err)
		}
		if err := run(st, workers); err != nil {
			t.Fatal(err)
		}
		return rec
	}
}

// TestWorkerCountInvariance runs every maintenance operation at workers 1
// and 4 on a recording store, with no other option set, and requires the
// same physical write sequence, block for block and bit for bit: each
// operation applies its buckets on the calling goroutine in chunk order, so
// the worker count changes nothing the device sees. The materialize cases
// run each engine as the one chunk Materialize runs, which no worker count
// can split.
func TestWorkerCountInvariance(t *testing.T) {
	src := dataset.Dense([]int{32, 32}, 11)
	std, nonStd := tile.NewStandard([]int{5, 5}, 2), tile.NewNonStandard(5, 2, 2)
	cases := []struct {
		name string
		run  func(t *testing.T, workers int) *writeRecorder
	}{
		{"standard", recordOn(std, func(st *tile.Store, workers int) error {
			_, err := ChunkedStandard(src, 2, st, workers)
			return err
		})},
		{"non-standard", recordOn(nonStd, func(st *tile.Store, workers int) error {
			_, err := ChunkedNonStandard(src, 2, st, workers)
			return err
		})},
		{"materialize-standard", recordOn(std, func(st *tile.Store, workers int) error {
			_, err := ChunkedStandard(src, 5, st, workers)
			return err
		})},
		{"materialize-non-standard", recordOn(nonStd, func(st *tile.Store, workers int) error {
			_, err := ChunkedNonStandard(src, 5, st, workers)
			return err
		})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, got := c.run(t, 1), c.run(t, 4)
			if len(got.ids) != len(want.ids) {
				t.Fatalf("workers=4 made %d writes, workers=1 %d", len(got.ids), len(want.ids))
			}
			for i := range want.ids {
				if got.ids[i] != want.ids[i] {
					t.Fatalf("write %d went to block %d at workers=4, block %d at workers=1", i, got.ids[i], want.ids[i])
				}
				for s := range want.frames[i] {
					if math.Float64bits(got.frames[i][s]) != math.Float64bits(want.frames[i][s]) {
						t.Fatalf("write %d (block %d) slot %d: %v at workers=4, %v at workers=1",
							i, want.ids[i], s, got.frames[i][s], want.frames[i][s])
					}
				}
			}
		})
	}
}
