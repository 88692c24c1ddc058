package appender

import (
	"fmt"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
)

// BenchmarkAppender measures fixed campaigns of slab appends (no
// expansions). The aligned campaign appends eight [32,256] slabs at
// multiples of 32, so each append is one dyadic run; the unaligned one
// appends eight [24,256] slabs, each of which splits into two runs.
// TestAllocBudget in internal/transform gates an aligned campaign's
// allocs/op with its own workload.
func BenchmarkAppender(b *testing.B) {
	shape := []int{256, 256}
	for _, c := range []struct {
		name string
		rows int
	}{{"aligned", 32}, {"unaligned", 24}} {
		slab := dataset.Dense([]int{c.rows, 256}, 5)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a, err := New(shape, 2)
				if err != nil {
					b.Fatal(err)
				}
				for step := 0; step < 8; step++ {
					if _, err := a.Append(0, slab); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkAppendBatchGroup is the ingest benchmark's request as the
// appender sees it: a group of 16 [64,1] slabs at an aligned frontier,
// merged and sealed on a durable (journaled) in-memory store pair.
func BenchmarkAppendBatchGroup(b *testing.B) {
	group := make([]*ndarray.Array, 16)
	for i := range group {
		group[i] = dataset.Dense([]int{64, 1}, int64(i))
	}
	b.ReportAllocs()
	var a *Appender
	for i := 0; i < b.N; i++ {
		if i%256 == 0 { // a fresh [64,4096] domain once this one is full
			b.StopTimer()
			var err error
			if a, err = NewWithBacking([]int{64, 4096}, 3, newDurableMems().backing); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, err := a.AppendBatch(1, group); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExpand measures one domain doubling of a full [64,cols]
// transform on in-memory storage.
func BenchmarkExpand(b *testing.B) {
	for _, cols := range []int{256, 2048} {
		b.Run(fmt.Sprintf("64x%d", cols), func(b *testing.B) {
			fill := dataset.Dense([]int{64, cols}, 9)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a, err := New([]int{64, cols}, 3)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := a.Append(1, fill); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := a.expand(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
