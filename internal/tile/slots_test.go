package tile

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/core"
	"github.com/shiftsplit/shiftsplit/internal/dyadic"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// materializedBlocks returns every block of the materialized layout of hat.
func materializedBlocks(t *testing.T, tiling Tiling, hat *ndarray.Array) [][]float64 {
	t.Helper()
	st, err := NewStore(storage.NewMemStore(tiling.BlockSize()), tiling)
	if err != nil {
		t.Fatal(err)
	}
	switch tiling.(type) {
	case *Standard:
		err = MaterializeStandard(st, hat)
	case *NonStandard:
		err = MaterializeNonStandard(st, hat)
	}
	if err != nil {
		t.Fatal(err)
	}
	return readBlocks(t, st)
}

func readBlocks(t *testing.T, st *Store) [][]float64 {
	t.Helper()
	out := make([][]float64, st.Tiling().NumBlocks())
	for id := range out {
		data, err := st.ReadTile(id)
		if err != nil {
			t.Fatal(err)
		}
		out[id] = data
	}
	return out
}

// sameBlocks holds every slot of got to want within 1e-12 of the layout's
// largest magnitude.
func sameBlocks(t *testing.T, got, want [][]float64) {
	t.Helper()
	scale := 1.0
	for _, b := range want {
		for _, v := range b {
			scale = math.Max(scale, math.Abs(v))
		}
	}
	for id := range want {
		for slot := range want[id] {
			if math.Abs(got[id][slot]-want[id][slot]) > 1e-12*scale {
				t.Fatalf("block %d slot %d = %v, materialized layout has %v", id, slot, got[id][slot], want[id][slot])
			}
		}
	}
}

// TestScalingSlotsFollowMerges applies seeded merges to a materialized store
// through the flat kernels plus the slot step, and after each one holds
// every block to the materialized layout of the merged transform.
func TestScalingSlotsFollowMerges(t *testing.T) {
	for _, g := range []struct {
		n []int
		b int
	}{
		{[]int{5}, 2},
		{[]int{4, 3}, 2},
		{[]int{3, 5}, 2},
		{[]int{5, 5}, 3},
		{[]int{2, 3, 4}, 1},
		{[]int{3, 3, 3}, 2},
	} {
		t.Run(fmt.Sprintf("standard/n=%v/b=%d", g.n, g.b), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(g.n)*10 + g.b)))
			shape := make([]int, len(g.n))
			for i, ni := range g.n {
				shape[i] = 1 << uint(ni)
			}
			tiling := NewStandard(g.n, g.b)
			hat := randArray(rng, shape...)
			st, err := NewStore(storage.NewMemStore(tiling.BlockSize()), tiling)
			if err != nil {
				t.Fatal(err)
			}
			if err := MaterializeStandard(st, hat); err != nil {
				t.Fatal(err)
			}
			set := NewBucketSet(tiling.BlockSize())
			for step := 0; step < 8; step++ {
				block := make(dyadic.Range, len(g.n))
				bShape := make([]int, len(g.n))
				for i, ni := range g.n {
					m := rng.Intn(ni + 1)
					block[i] = dyadic.Interval{Level: m, Pos: rng.Intn(1 << uint(ni-m))}
					bShape[i] = 1 << uint(m)
				}
				bHat := randArray(rng, bShape...)
				AccumulateEmbedStandard(tiling, shape, block, bHat, set)
				AccumulateScalingSlots(tiling, set)
				touched := set.Len()
				if err := st.ApplyBuckets(set.Buckets()); err != nil {
					t.Fatal(err)
				}
				if set.Len() != touched {
					t.Fatalf("the slot step added tiles: %d -> %d", touched, set.Len())
				}
				set.Reset()
				core.EachEmbedStandard(shape, block, bHat, func(c []int, v float64) { hat.Set(hat.At(c...)+v, c...) })
				sameBlocks(t, readBlocks(t, st), materializedBlocks(t, tiling, hat))
			}
		})
	}
	for _, g := range []struct{ n, d, b int }{
		{5, 1, 2},
		{4, 2, 3},
		{5, 2, 2},
		{3, 3, 2},
		{4, 3, 1},
	} {
		t.Run(fmt.Sprintf("non-standard/n=%d/d=%d/b=%d", g.n, g.d, g.b), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(g.n*100 + g.d*10 + g.b)))
			tiling := NewNonStandard(g.n, g.d, g.b)
			shape := tiling.Domain()
			hat := randArray(rng, shape...)
			st, err := NewStore(storage.NewMemStore(tiling.BlockSize()), tiling)
			if err != nil {
				t.Fatal(err)
			}
			if err := MaterializeNonStandard(st, hat); err != nil {
				t.Fatal(err)
			}
			set := NewBucketSet(tiling.BlockSize())
			for step := 0; step < 8; step++ {
				m := rng.Intn(g.n + 1)
				pos := make([]int, g.d)
				bShape := make([]int, g.d)
				for i := range pos {
					pos[i] = rng.Intn(1 << uint(g.n-m))
					bShape[i] = 1 << uint(m)
				}
				bHat := randArray(rng, bShape...)
				AccumulateShiftNonStandard(tiling, shape, m, pos, bHat, set)
				AccumulateSplitNonStandard(tiling, shape, m, pos, bHat.Data()[0], set)
				AccumulateScalingSlots(tiling, set)
				if err := st.ApplyBuckets(set.Buckets()); err != nil {
					t.Fatal(err)
				}
				set.Reset()
				add := func(c []int, v float64) { hat.Set(hat.At(c...)+v, c...) }
				core.EachShiftNonStandard(shape, m, pos, bHat, add)
				core.EachSplitNonStandard(shape, m, pos, bHat.Data()[0], add)
				sameBlocks(t, readBlocks(t, st), materializedBlocks(t, tiling, hat))
			}
		})
	}
}

// TestChunkScalingMatchesPathSums holds the unfolded averages of the tiles
// rooted inside a chunk to core.ScalingNonStandard of the chunk's own
// transform, with one touch per tile.
func TestChunkScalingMatchesPathSums(t *testing.T) {
	for _, g := range []struct{ n, d, b, m int }{
		{5, 1, 2, 4},
		{5, 2, 1, 3},
		{6, 2, 2, 5},
		{4, 3, 1, 3},
		{5, 2, 2, 2},
	} {
		t.Run(fmt.Sprintf("n=%d/d=%d/b=%d/m=%d", g.n, g.d, g.b, g.m), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(g.n + g.m)))
			tiling := NewNonStandard(g.n, g.d, g.b)
			chunk := make([]int, g.d)
			pos := make([]int, g.d)
			for i := range chunk {
				chunk[i] = 1 << uint(g.m)
				pos[i] = rng.Intn(1 << uint(g.n-g.m))
			}
			hat := randArray(rng, chunk...)
			set := NewBucketSet(tiling.BlockSize())
			AccumulateChunkScalingNonStandard(tiling, g.m, pos, hat, set)
			want := 0
			for j := 1; j < g.m; j++ {
				if !tiling.Level(j).TileRoot() {
					continue
				}
				cells := 1 << uint(g.d*(g.m-j))
				want += cells
				local := make([]int, g.d)
				for x := 0; x < cells; x++ {
					root, rest := 0, x
					for i := g.d - 1; i >= 0; i-- {
						local[i], rest = rest%(1<<uint(g.m-j)), rest/(1<<uint(g.m-j))
					}
					lvl := tiling.Level(j)
					loc := 0
					for i, p := range local {
						root, loc = lvl.Push(root, loc, pos[i]<<uint(g.m-j)+p)
					}
					block, _ := lvl.At(root, loc)
					b := set.bucket(block)
					if b.Touches != 1 {
						t.Fatalf("tile %d rooted at level %d: %d touches, want 1", block, j, b.Touches)
					}
					if w := core.ScalingNonStandard(hat, j, local); math.Abs(b.Deltas[0]-w) > 1e-12*math.Max(1, math.Abs(w)) {
						t.Fatalf("tile %d rooted at level %d cell %v: slot %v, path sum %v", block, j, local, b.Deltas[0], w)
					}
				}
			}
			if set.Len() != want {
				t.Fatalf("%d tiles recorded, %d are rooted inside the chunk", set.Len(), want)
			}
		})
	}
}
