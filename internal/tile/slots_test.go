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

// definedLayout derives every block of the layout of hat from the
// definitions, not from the kernels or the slot step: every coefficient at
// its Locate position, and slot 0 of every tile but the top one its root's
// scaling coefficient. On the non-standard form that is
// core.ScalingNonStandard of the root cell. A standard slot crosses one 1-d
// slot per dimension, each naming either a coefficient or, as slot 0 of a
// non-top tile, its root's core.ScalingPath1D; the slot holds the sum over
// the cross product.
func definedLayout(tiling Tiling, hat *ndarray.Array) [][]float64 {
	want := make([][]float64, tiling.NumBlocks())
	for id := range want {
		want[id] = make([]float64, tiling.BlockSize())
	}
	switch tl := tiling.(type) {
	case *Standard:
		// basis[i][tile*B+slot] lists the weighted indices of dimension i
		// the 1-d slot combines (nil for an unused slot).
		d, B := tl.Dims(), tl.Dim(0).BlockSize()
		basis := make([][][]core.Target, d)
		for i := range basis {
			od := tl.Dim(i)
			basis[i] = make([][]core.Target, od.NumBlocks()*B)
			for idx := 0; idx < 1<<uint(od.Levels()); idx++ {
				bt, slot := od.Locate1D(idx)
				basis[i][bt*B+slot] = []core.Target{{Index: idx, Weight: 1}}
			}
			for bt := 0; bt < od.NumBlocks(); bt++ {
				if basis[i][bt*B] == nil { // not the top tile, whose slot 0 is index 0
					j, k := od.RootOf(bt)
					basis[i][bt*B] = core.ScalingPath1D(od.Levels(), j, k)
				}
			}
		}
		lists, coords := make([][]core.Target, d), make([]int, d)
		for id := range want {
			for slot := range want[id] {
				for i, rest := d-1, slot; i >= 0; i, rest = i-1, rest/B {
					bt := id / tl.Stride(i) % tl.Dim(i).NumBlocks()
					lists[i] = basis[i][bt*B+rest%B]
				}
				want[id][slot] = crossSum(hat, lists, coords, 1)
			}
		}
	case *NonStandard:
		hat.Each(func(coords []int, v float64) {
			id, slot := tl.Locate(coords)
			want[id][slot] = v
		})
		for id := 1; id < len(want); id++ {
			level, pos := tl.RootOf(id)
			want[id][0] = core.ScalingNonStandard(hat, level, pos)
		}
	}
	return want
}

// crossSum returns w times the sum of hat over the cross product of the
// lists of dimensions len(coords)-len(lists).., each term weighted by its
// entries' weights; coords holds the earlier dimensions' indices.
func crossSum(hat *ndarray.Array, lists [][]core.Target, coords []int, w float64) float64 {
	if len(lists) == 0 {
		return w * hat.At(coords...)
	}
	t, sum := len(coords)-len(lists), 0.0
	for _, e := range lists[0] {
		coords[t] = e.Index
		sum += crossSum(hat, lists[1:], coords, w*e.Weight)
	}
	return sum
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
				t.Fatalf("block %d slot %d = %v, the defined layout has %v", id, slot, got[id][slot], want[id][slot])
			}
		}
	}
}

// TestScalingSlotsFollowMerges starts from an empty store and applies
// seeded merges through the flat kernels plus the slot step, the first of
// them a whole-domain block (the layout a one-chunk transform writes), and
// after each one holds every block to the layout definedLayout derives for
// the merged transform. The standard geometries include those of
// TestChunkedEnginesWriteScalingSlots, which holds every chunk size to the
// one-chunk layout.
func TestScalingSlotsFollowMerges(t *testing.T) {
	for _, g := range []struct {
		n []int
		b int
	}{
		{[]int{5}, 2},
		{[]int{4, 3}, 2},
		{[]int{4, 4}, 3},
		{[]int{5, 5}, 2},
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
			hat := ndarray.New(shape...)
			st, err := NewStore(storage.NewMemStore(tiling.BlockSize()), tiling)
			if err != nil {
				t.Fatal(err)
			}
			set := NewBucketSet(tiling.BlockSize())
			for step := 0; step < 9; step++ {
				block := make(dyadic.Range, len(g.n))
				bShape := make([]int, len(g.n))
				for i, ni := range g.n {
					m := ni
					if step > 0 {
						m = rng.Intn(ni + 1)
					}
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
				sameBlocks(t, readBlocks(t, st), definedLayout(tiling, hat))
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
			hat := ndarray.New(shape...)
			st, err := NewStore(storage.NewMemStore(tiling.BlockSize()), tiling)
			if err != nil {
				t.Fatal(err)
			}
			set := NewBucketSet(tiling.BlockSize())
			for step := 0; step < 9; step++ {
				m := g.n
				if step > 0 {
					m = rng.Intn(g.n + 1)
				}
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
				sameBlocks(t, readBlocks(t, st), definedLayout(tiling, hat))
			}
		})
	}
}
