package storage

import (
	"fmt"
	"runtime"
	"testing"
)

// flipBlockSize is the benchmark stores' block size (16x16 tiles): the
// remap table has logical/256 pages.
const flipBlockSize = 256

// newFlipper returns a function that runs one epoch flip rewriting eight
// logical blocks, each on its own table page, of a Versioned over an
// in-memory medium with the given logical space. After the first call every
// flip supersedes eight blocks and reuses the eight the previous one freed.
func newFlipper(tb testing.TB, logical int) func() {
	v, err := NewVersioned(NewMemStore(flipBlockSize), logical)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { v.Close() })
	ids := make([]int, 8)
	data := make([][]float64, len(ids))
	for i := range ids {
		ids[i] = i * (logical / len(ids))
		data[i] = fillSeq(flipBlockSize, float64(i))
	}
	return func() {
		if err := v.WriteBlocks(ids, data); err != nil {
			tb.Fatal(err)
		}
		if err := v.Commit(); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestVersionedFlipCostIndependentOfLogical holds a flip's memory traffic to
// its batch: a 64x larger logical space may add one slice header per table
// page to the copy, not a table. (Copying the whole table and sweeping it, as
// this layer used to, makes the larger store's flip ~64x the smaller's.)
func TestVersionedFlipCostIndependentOfLogical(t *testing.T) {
	measure := func(logical int) (bytes, allocs float64) {
		flip := newFlipper(t, logical)
		for i := 0; i < 4; i++ {
			flip()
		}
		if !raceEnabled { // sync.Pool drops items under the race detector
			allocs = testing.AllocsPerRun(100, flip)
		}
		const flips = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < flips; i++ {
			flip()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / flips, allocs
	}
	smallBytes, smallAllocs := measure(4096)
	largeBytes, largeAllocs := measure(262144)
	t.Logf("per 8-block flip: logical 4096: %.0f B, %.1f allocs; logical 262144: %.0f B, %.1f allocs",
		smallBytes, smallAllocs, largeBytes, largeAllocs)
	if largeBytes >= 2*smallBytes {
		t.Errorf("a flip allocates %.0f B at logical 262144 against %.0f B at 4096: its cost follows the store, not the batch", largeBytes, smallBytes)
	}
	if !raceEnabled && largeAllocs >= 2*smallAllocs {
		t.Errorf("a flip makes %.1f allocations at logical 262144 against %.1f at 4096", largeAllocs, smallAllocs)
	}
}

// BenchmarkVersionedFlip reports the cost of one 8-block flip as the
// logical space grows; make bench-smoke prints it, nothing gates it.
func BenchmarkVersionedFlip(b *testing.B) {
	for _, logical := range []int{4096, 65536, 1048576} {
		b.Run(fmt.Sprintf("logical=%d", logical), func(b *testing.B) {
			flip := newFlipper(b, logical)
			flip()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				flip()
			}
		})
	}
}
