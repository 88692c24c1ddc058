package tile

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/core"
	"github.com/shiftsplit/shiftsplit/internal/dyadic"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// referenceBuckets builds the expected BucketSet contents via the generic
// per-coefficient enumeration the kernels replace.
func referenceBuckets(t Tiling, each func(visit func(coords []int, delta float64))) map[int]*Bucket {
	out := make(map[int]*Bucket)
	each(func(coords []int, delta float64) {
		block, slot := t.Locate(coords)
		b, ok := out[block]
		if !ok {
			b = &Bucket{Block: block, Deltas: make([]float64, t.BlockSize())}
			out[block] = b
		}
		b.Deltas[slot] += delta
		b.Touches++
	})
	return out
}

func compareBuckets(t *testing.T, want map[int]*Bucket, got []Bucket) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("kernel touched %d tiles, reference %d", len(got), len(want))
	}
	prev := -1
	for i := range got {
		g := &got[i]
		if g.Block <= prev {
			t.Fatalf("buckets not in ascending block order at %d", g.Block)
		}
		prev = g.Block
		w, ok := want[g.Block]
		if !ok {
			t.Fatalf("kernel touched block %d the reference does not", g.Block)
		}
		if g.Touches != w.Touches {
			t.Errorf("block %d: kernel counts %d touches, reference %d", g.Block, g.Touches, w.Touches)
		}
		for s := range g.Deltas {
			if d := g.Deltas[s] - w.Deltas[s]; d > 1e-12 || d < -1e-12 {
				t.Fatalf("block %d slot %d: kernel %v, reference %v", g.Block, s, g.Deltas[s], w.Deltas[s])
			}
		}
	}
}

func randHat(shape []int, seed int64) *ndarray.Array {
	rng := rand.New(rand.NewSource(seed))
	a := ndarray.New(shape...)
	data := a.Data()
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	return a
}

func TestAccumulateEmbedStandardMatchesGeneric(t *testing.T) {
	cases := []struct {
		n     []int // per-dimension levels
		b     int
		block dyadic.Range
	}{
		{n: []int{4}, b: 2, block: dyadic.Range{dyadic.NewInterval(2, 1)}},
		{n: []int{4}, b: 1, block: dyadic.Range{dyadic.NewInterval(0, 13)}},
		{n: []int{4, 4}, b: 2, block: dyadic.Range{dyadic.NewInterval(2, 1), dyadic.NewInterval(2, 3)}},
		{n: []int{4, 4}, b: 1, block: dyadic.Range{dyadic.NewInterval(2, 0), dyadic.NewInterval(0, 7)}},
		{n: []int{3, 5}, b: 2, block: dyadic.Range{dyadic.NewInterval(1, 2), dyadic.NewInterval(3, 1)}},
		{n: []int{3, 3, 3}, b: 1, block: dyadic.Range{dyadic.NewInterval(1, 1), dyadic.NewInterval(2, 0), dyadic.NewInterval(1, 3)}},
		{n: []int{4, 4}, b: 4, block: dyadic.Range{dyadic.NewInterval(4, 0), dyadic.NewInterval(4, 0)}},
	}
	for ci, tc := range cases {
		t.Run(fmt.Sprintf("case%d", ci), func(t *testing.T) {
			tiling := NewStandard(tc.n, tc.b)
			shape := make([]int, len(tc.n))
			sub := make([]int, len(tc.n))
			for i, n := range tc.n {
				shape[i] = 1 << uint(n)
				sub[i] = tc.block[i].Len()
			}
			bHat := randHat(sub, int64(ci+1))

			want := referenceBuckets(tiling, func(visit func([]int, float64)) {
				core.EachEmbedStandard(shape, tc.block, bHat, visit)
			})
			bs := NewBucketSet(tiling.BlockSize())
			AccumulateEmbedStandard(tiling, shape, tc.block, bHat, bs)
			compareBuckets(t, want, bs.Buckets())
		})
	}
}

func TestAccumulateShiftNonStandardMatchesGeneric(t *testing.T) {
	cases := []struct {
		n, d, b, m int
		pos        []int
	}{
		{n: 4, d: 1, b: 2, m: 2, pos: []int{1}},
		{n: 4, d: 2, b: 2, m: 2, pos: []int{1, 3}},
		{n: 4, d: 2, b: 1, m: 3, pos: []int{0, 1}},
		{n: 3, d: 3, b: 1, m: 2, pos: []int{1, 0, 1}},
		{n: 5, d: 2, b: 2, m: 2, pos: []int{5, 2}},
		{n: 4, d: 2, b: 2, m: 0, pos: []int{7, 11}},
	}
	for ci, tc := range cases {
		t.Run(fmt.Sprintf("case%d", ci), func(t *testing.T) {
			tiling := NewNonStandard(tc.n, tc.d, tc.b)
			shape := make([]int, tc.d)
			sub := make([]int, tc.d)
			for i := range shape {
				shape[i] = 1 << uint(tc.n)
				sub[i] = 1 << uint(tc.m)
			}
			bHat := randHat(sub, int64(ci+100))

			want := referenceBuckets(tiling, func(visit func([]int, float64)) {
				core.EachShiftNonStandard(shape, tc.m, tc.pos, bHat, visit)
			})
			bs := NewBucketSet(tiling.BlockSize())
			AccumulateShiftNonStandard(tiling, shape, tc.m, tc.pos, bHat, bs)
			compareBuckets(t, want, bs.Buckets())
		})
	}
}

func TestAccumulateFallsBackForGenericTilings(t *testing.T) {
	// Sequential is not a specialized tiling; the kernels must still produce
	// the generic enumeration's buckets through the fallback path.
	shape := []int{8, 8}
	tiling := NewSequential(shape, 4)
	block := dyadic.Range{dyadic.NewInterval(2, 1), dyadic.NewInterval(2, 0)}
	bHat := randHat([]int{4, 4}, 9)

	want := referenceBuckets(tiling, func(visit func([]int, float64)) {
		core.EachEmbedStandard(shape, block, bHat, visit)
	})
	bs := NewBucketSet(tiling.BlockSize())
	AccumulateEmbedStandard(tiling, shape, block, bHat, bs)
	compareBuckets(t, want, bs.Buckets())
}

func TestApplyBucketsMatchesBatch(t *testing.T) {
	// The merge a Store.MergeBlock performs — accumulate kernels, then
	// ApplyBuckets — against the per-coefficient Batch path, on the
	// specialized tilings and on Sequential, which takes the kernels'
	// generic fallback (StoreOptions cannot select it).
	shape := []int{8, 8}
	stdBlock := dyadic.Range{dyadic.NewInterval(2, 1), dyadic.NewInterval(2, 1)}
	bHat := randHat([]int{4, 4}, 3)
	embedStd := func(tiling Tiling, bs *BucketSet, visit func([]int, float64)) {
		if bs != nil {
			AccumulateEmbedStandard(tiling, shape, stdBlock, bHat, bs)
			return
		}
		core.EachEmbedStandard(shape, stdBlock, bHat, visit)
	}
	m, pos := 2, []int{1, 0}
	embedNonStd := func(tiling Tiling, bs *BucketSet, visit func([]int, float64)) {
		u := bHat.At(0, 0)
		if bs != nil {
			AccumulateShiftNonStandard(tiling, shape, m, pos, bHat, bs)
			AccumulateSplitNonStandard(tiling, shape, m, pos, u, bs)
			return
		}
		core.EachShiftNonStandard(shape, m, pos, bHat, visit)
		core.EachSplitNonStandard(shape, m, pos, u, visit)
	}
	cases := []struct {
		name   string
		tiling Tiling
		embed  func(Tiling, *BucketSet, func([]int, float64))
	}{
		{"standard", NewStandard([]int{3, 3}, 1), embedStd},
		{"standard on sequential", NewSequential(shape, 4), embedStd},
		{"non-standard", NewNonStandard(3, 2, 1), embedNonStd},
		{"non-standard on sequential", NewSequential(shape, 4), embedNonStd},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tiling := tc.tiling
			mkStore := func() (*Store, *storage.Counting) {
				counting := storage.NewCounting(storage.NewMemStore(tiling.BlockSize()))
				st, err := NewStore(counting, tiling)
				if err != nil {
					t.Fatal(err)
				}
				return st, counting
			}

			// Reference: the per-coefficient Batch path.
			want, wantIO := mkStore()
			batch := NewBatch(want)
			var addErr error
			tc.embed(tiling, nil, func(coords []int, delta float64) {
				if addErr == nil {
					addErr = batch.Add(coords, delta)
				}
			})
			if addErr != nil {
				t.Fatal(addErr)
			}
			if err := batch.Flush(); err != nil {
				t.Fatal(err)
			}

			got, gotIO := mkStore()
			bs := NewBucketSet(tiling.BlockSize())
			tc.embed(tiling, bs, nil)
			if err := got.ApplyBuckets(bs.Buckets()); err != nil {
				t.Fatal(err)
			}
			if gotIO.Stats() != wantIO.Stats() {
				t.Errorf("buckets did %+v, batch did %+v", gotIO.Stats(), wantIO.Stats())
			}

			for b := 0; b < tiling.NumBlocks(); b++ {
				wd, err := want.ReadTile(b)
				if err != nil {
					t.Fatal(err)
				}
				gd, err := got.ReadTile(b)
				if err != nil {
					t.Fatal(err)
				}
				for s := range wd {
					if wd[s] != gd[s] {
						t.Fatalf("block %d slot %d: buckets %v != batch %v", b, s, gd[s], wd[s])
					}
				}
			}
		})
	}
}
