package query

import (
	"math/rand"
	"testing"
)

// BenchmarkRangeSumNonStandard is the non-standard range-sum kernel on the
// benchmark harness's geometry: a 1024² store at TileBits 4 (b ∤ n, so
// the top tile is 2 levels high) on a MemStore, every block already in
// memory, and the harness's boxes — start below 512 and extent 1..512 per
// dimension. It reports ns/op, allocs/op and blocks/op.
func BenchmarkRangeSumNonStandard(b *testing.B) {
	c := nonStandardCase(b, 10, 2, 4, 1)
	rng := rand.New(rand.NewSource(1))
	const half = 512
	starts, extents := make([][]int, 1024), make([][]int, 1024)
	for i := range starts {
		starts[i] = []int{rng.Intn(half), rng.Intn(half)}
		extents[i] = []int{1 + rng.Intn(half), 1 + rng.Intn(half)}
	}
	if _, _, err := RangeSumNonStandard(c.st, starts[0], extents[0]); err != nil { // sizes the arena
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	blocks := 0
	for i := 0; i < b.N; i++ {
		k := i % len(starts)
		_, io, err := RangeSumNonStandard(c.st, starts[k], extents[k])
		if err != nil {
			b.Fatal(err)
		}
		blocks += io
	}
	b.ReportMetric(float64(blocks)/float64(b.N), "blocks/op")
}
