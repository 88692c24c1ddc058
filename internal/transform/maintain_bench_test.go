package transform

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
)

// The maintenance benchmarks measure full chunked-transform runs at several
// worker counts; TestAllocBudget gates their workers=1 allocs/op. Run with -benchmem:
// the flat kernels must not allocate per coefficient, so allocations stay
// proportional to the chunk count, not the cell count.

func benchWorkerCounts() []int {
	counts := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		counts = append(counts, n)
	}
	return counts
}

func BenchmarkChunkedStandard(b *testing.B) {
	src := dataset.Dense([]int{256, 256}, 1)
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tiling := tile.NewStandard([]int{8, 8}, 2)
				st, err := tile.NewStore(storage.NewMemStore(tiling.BlockSize()), tiling)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ChunkedStandard(src, 5, st, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkChunkedNonStandard(b *testing.B) {
	src := dataset.Dense([]int{256, 256}, 2)
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tiling := tile.NewNonStandard(8, 2, 2)
				st, err := tile.NewStore(storage.NewMemStore(tiling.BlockSize()), tiling)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ChunkedNonStandard(src, 5, st, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
