package transform

import (
	"errors"
	"fmt"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
)

// faultyStore builds a tile.Store over a Faulty wrapper.
func faultyStore(t *testing.T, tiling tile.Tiling) (*tile.Store, *storage.Faulty) {
	t.Helper()
	f := storage.NewFaulty(storage.NewMemStore(tiling.BlockSize()))
	st, err := tile.NewStore(f, tiling)
	if err != nil {
		t.Fatal(err)
	}
	return st, f
}

// atWorkers runs check at workers 1 and 4. The engines apply buckets in
// Run's consumer on the calling goroutine, so a storage fault must halt a
// fanned-out Run and surface just as it does inline.
func atWorkers(t *testing.T, check func(t *testing.T, workers int)) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { check(t, workers) })
	}
}

func TestChunkedStandardSurfacesWriteFault(t *testing.T) {
	atWorkers(t, func(t *testing.T, workers int) {
		src := dataset.Dense([]int{16, 16}, 1)
		st, f := faultyStore(t, tile.NewStandard([]int{4, 4}, 2))
		f.FailWriteAfter(3)
		_, err := ChunkedStandard(src, 2, st, workers)
		if !errors.Is(err, storage.ErrInjected) {
			t.Fatalf("err = %v, want injected fault", err)
		}
	})
}

func TestChunkedNonStandardSurfacesWriteFault(t *testing.T) {
	atWorkers(t, func(t *testing.T, workers int) {
		src := dataset.Dense([]int{16, 16}, 2)
		st, f := faultyStore(t, tile.NewNonStandard(4, 2, 2))
		f.FailWriteAfter(2)
		_, err := ChunkedNonStandard(src, 1, st, workers)
		if !errors.Is(err, storage.ErrInjected) {
			t.Fatalf("err = %v, want injected fault", err)
		}
	})
}

func TestVitterSurfacesFault(t *testing.T) {
	src := dataset.Dense([]int{8, 8}, 4)
	f := storage.NewFaulty(storage.NewMemStore(4))
	f.FailWriteAfter(2)
	_, err := Vitter(src, 16, f, 4)
	if !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
}
