package transform

import (
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
	"github.com/shiftsplit/shiftsplit/internal/wavelet"
)

// sparseBlob builds a dataset that is zero except in one quadrant.
func sparseBlob(n int) *ndarray.Array {
	a := ndarray.New(n, n)
	blob := dataset.Dense([]int{n / 4, n / 4}, 1)
	a.SubPaste(blob, []int{0, 0})
	return a
}

func TestSparseStandardCorrectAndCheaper(t *testing.T) {
	src := sparseBlob(32)
	dense := dataset.Dense([]int{32, 32}, 2)

	measure := func(data *ndarray.Array) (int64, Stats) {
		cnt := storage.NewCounting(storage.NewMemStore(16))
		st, err := tile.NewStore(cnt, tile.NewStandard([]int{5, 5}, 2))
		if err != nil {
			t.Fatal(err)
		}
		stats, err := ChunkedStandard(data, 2, st, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Capture engine I/O before verification adds its own reads.
		engineIO := cnt.Stats().Total()
		verifyAgainst(t, st, wavelet.TransformStandard(data), 1e-8)
		return engineIO, stats
	}
	sparseIO, sparseStats := measure(src)
	denseIO, denseStats := measure(dense)
	if sparseStats.SkippedChunks == 0 {
		t.Fatal("no chunks skipped on a 15/16-zero dataset")
	}
	if denseStats.SkippedChunks != 0 {
		t.Error("dense dataset skipped chunks")
	}
	if float64(sparseIO) > 0.6*float64(denseIO) {
		t.Errorf("sparse I/O %d not clearly below dense %d", sparseIO, denseIO)
	}
}

func TestSparseNonStandardCorrectAndSkipsZeroBlocks(t *testing.T) {
	src := sparseBlob(32)
	cnt := storage.NewCounting(storage.NewMemStore(16))
	st, err := tile.NewStore(cnt, tile.NewNonStandard(5, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ChunkedNonStandard(src, 2, st, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Capture engine I/O before verification adds its own reads.
	engineIO := cnt.Stats()
	verifyAgainst(t, st, wavelet.TransformNonStandard(src), 1e-8)
	if stats.SkippedChunks != 60 { // 64 chunks; the 8x8 blob covers 4
		t.Errorf("skipped %d chunks, want 60", stats.SkippedChunks)
	}
	// All-zero blocks must never be written: writes well below total blocks.
	if engineIO.Writes*2 > int64(st.Tiling().NumBlocks()) {
		t.Errorf("wrote %d of %d blocks for a mostly-zero dataset", engineIO.Writes, st.Tiling().NumBlocks())
	}
	if engineIO.Reads != 0 {
		t.Error("non-standard engine read blocks")
	}
}

func TestAllZeroDatasetCostsAlmostNothing(t *testing.T) {
	src := ndarray.New(32, 32)
	cnt := storage.NewCounting(storage.NewMemStore(16))
	st, err := tile.NewStore(cnt, tile.NewStandard([]int{5, 5}, 2))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ChunkedStandard(src, 2, st, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SkippedChunks != stats.Chunks {
		t.Errorf("skipped %d of %d chunks", stats.SkippedChunks, stats.Chunks)
	}
	if cnt.Stats().Total() != 0 {
		t.Errorf("all-zero dataset cost %d block I/Os", cnt.Stats().Total())
	}
}

func TestOnceWriterSuppressesZeroBlocks(t *testing.T) {
	tiling := tile.NewNonStandard(4, 2, 2)
	cnt := storage.NewCounting(storage.NewMemStore(tiling.BlockSize()))
	st, err := tile.NewStore(cnt, tiling)
	if err != nil {
		t.Fatal(err)
	}
	// Writing an all-zero transform through WriteArray must write nothing.
	if err := tile.WriteArray(st, ndarray.New(16, 16)); err != nil {
		t.Fatal(err)
	}
	if cnt.Stats().Writes != 0 {
		t.Errorf("zero transform wrote %d blocks", cnt.Stats().Writes)
	}
	// And the store still reads back zeros.
	v, err := st.Get([]int{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Errorf("read %g from suppressed block", v)
	}
}
