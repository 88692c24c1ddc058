package tile

import (
	"math"
	"math/rand"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/dyadic"
	"github.com/shiftsplit/shiftsplit/internal/haar"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/wavelet"
)

func randArray(rng *rand.Rand, shape ...int) *ndarray.Array {
	a := ndarray.New(shape...)
	for i := range a.Data() {
		a.Data()[i] = rng.NormFloat64() * 10
	}
	return a
}

func TestStoreGetSetAdd(t *testing.T) {
	tiling := NewStandard([]int{3, 3}, 2)
	st, err := NewStore(storage.NewMemStore(tiling.BlockSize()), tiling)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	coords := []int{5, 3}
	if err := st.Set(coords, 7.5); err != nil {
		t.Fatal(err)
	}
	if err := st.Add(coords, 2.5); err != nil {
		t.Fatal(err)
	}
	v, err := st.Get(coords)
	if err != nil {
		t.Fatal(err)
	}
	if v != 10 {
		t.Errorf("Get = %g", v)
	}
	// A different coefficient must be unaffected.
	v2, err := st.Get([]int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if v2 != 0 {
		t.Errorf("untouched coefficient = %g", v2)
	}
}

func TestNewStoreBlockSizeMismatch(t *testing.T) {
	tiling := NewOneD(4, 2)
	if _, err := NewStore(storage.NewMemStore(8), tiling); err == nil {
		t.Error("mismatched block sizes accepted")
	}
}

func TestStoreIOCounts(t *testing.T) {
	tiling := NewOneD(6, 2)
	counting := storage.NewCounting(storage.NewMemStore(tiling.BlockSize()))
	st, err := NewStore(counting, tiling)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get([]int{5}); err != nil {
		t.Fatal(err)
	}
	if s := counting.Stats(); s.Reads != 1 || s.Writes != 0 {
		t.Errorf("Get stats = %+v", s)
	}
	counting.Reset()
	if err := st.Add([]int{5}, 1); err != nil {
		t.Fatal(err)
	}
	if s := counting.Stats(); s.Reads != 1 || s.Writes != 1 {
		t.Errorf("Add stats = %+v", s)
	}
}

// mergeWhole merges hat into st as the whole-domain block, through the
// kernels and the slot step: into an empty store, the layout a one-chunk
// transform writes.
func mergeWhole(t *testing.T, st *Store, hat *ndarray.Array) {
	t.Helper()
	tl := st.Tiling()
	set := NewBucketSet(tl.BlockSize())
	switch tt := tl.(type) {
	case *Standard:
		whole := make(dyadic.Range, tt.Dims())
		for i := range whole {
			whole[i].Level = tt.Dim(i).Levels()
		}
		AccumulateEmbedStandard(tl, tt.Domain(), whole, hat, set)
	case *NonStandard:
		pos := make([]int, tt.d)
		AccumulateShiftNonStandard(tl, tt.Domain(), tt.n, pos, hat, set)
		AccumulateSplitNonStandard(tl, tt.Domain(), tt.n, pos, hat.Data()[0], set)
	}
	AccumulateScalingSlots(tl, set)
	if err := st.ApplyBuckets(set.Buckets()); err != nil {
		t.Fatal(err)
	}
}

func TestMaterialize1DStandard(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n, b := 5, 2
	v := make([]float64, 1<<uint(n))
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	hatVec := haar.Transform(v)
	hat := ndarray.FromSlice(append([]float64(nil), hatVec...), 1<<uint(n))

	tiling := NewStandard([]int{n}, b)
	st, err := NewStore(storage.NewMemStore(tiling.BlockSize()), tiling)
	if err != nil {
		t.Fatal(err)
	}
	mergeWhole(t, st, hat)
	// Every real coefficient reads back exactly.
	for idx := 0; idx < 1<<uint(n); idx++ {
		got, err := st.Get([]int{idx})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-hatVec[idx]) > 1e-12 {
			t.Fatalf("coefficient %d: %g vs %g", idx, got, hatVec[idx])
		}
	}
	// Slot 0 of every non-top tile holds the root scaling coefficient.
	oneD := tiling.Dim(0)
	for blk := 1; blk < oneD.NumBlocks(); blk++ {
		data, err := st.ReadTile(blk)
		if err != nil {
			t.Fatal(err)
		}
		j, k := oneD.RootOf(blk)
		want := haar.ScalingAt(hatVec, j, k)
		if math.Abs(data[0]-want) > 1e-9 {
			t.Fatalf("tile %d scaling slot = %g, want u[%d,%d] = %g", blk, data[0], j, k, want)
		}
	}
}

func TestMaterializedTileReconstructsPointAlone(t *testing.T) {
	// The paper's reason for storing the extra scaling coefficient: any data
	// point can be rebuilt from its leaf tile alone (§3).
	rng := rand.New(rand.NewSource(2))
	n, b := 6, 2
	v := make([]float64, 1<<uint(n))
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	hatVec := haar.Transform(v)
	hat := ndarray.FromSlice(append([]float64(nil), hatVec...), 1<<uint(n))
	tiling := NewStandard([]int{n}, b)
	st, err := NewStore(storage.NewMemStore(tiling.BlockSize()), tiling)
	if err != nil {
		t.Fatal(err)
	}
	mergeWhole(t, st, hat)
	oneD := tiling.Dim(0)
	for point := 0; point < len(v); point++ {
		// Leaf tile: the one holding the level-1 detail covering the point.
		leaf := haar.Index(n, 1, point/2)
		blk, _ := oneD.Locate1D(leaf)
		data, err := st.ReadTile(blk)
		if err != nil {
			t.Fatal(err)
		}
		// Reconstruct: root scaling + signed details down the in-tile path.
		j, _ := oneD.RootOf(blk)
		val := data[0]
		for level := j; level >= 1; level-- {
			idx := haar.Index(n, level, point>>uint(level))
			_, slot := oneD.Locate1D(idx)
			if point>>uint(level-1)&1 == 0 {
				val += data[slot]
			} else {
				val -= data[slot]
			}
		}
		if math.Abs(val-v[point]) > 1e-9 {
			t.Fatalf("point %d from single tile: %g vs %g", point, val, v[point])
		}
	}
}

func TestMaterialize2DStandard(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randArray(rng, 16, 8)
	hat := wavelet.TransformStandard(a)
	tiling := NewStandard([]int{4, 3}, 2)
	st, err := NewStore(storage.NewMemStore(tiling.BlockSize()), tiling)
	if err != nil {
		t.Fatal(err)
	}
	mergeWhole(t, st, hat)
	// All real coefficients read back.
	bad := 0
	hat.Each(func(coords []int, v float64) {
		got, err := st.Get(coords)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-v) > 1e-12 {
			bad++
		}
	})
	if bad != 0 {
		t.Fatalf("%d coefficients differ", bad)
	}
}

func TestMaterialize2DNonStandard(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randArray(rng, 16, 16)
	hat := wavelet.TransformNonStandard(a)
	tiling := NewNonStandard(4, 2, 2)
	st, err := NewStore(storage.NewMemStore(tiling.BlockSize()), tiling)
	if err != nil {
		t.Fatal(err)
	}
	mergeWhole(t, st, hat)
	bad := 0
	hat.Each(func(coords []int, v float64) {
		got, err := st.Get(coords)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-v) > 1e-12 {
			bad++
		}
	})
	if bad != 0 {
		t.Fatalf("%d coefficients differ", bad)
	}
	// Slot 0 of every non-top tile equals the average of the root cell.
	for blk := 1; blk < tiling.NumBlocks(); blk++ {
		level, pos := tiling.RootOf(blk)
		data, err := st.ReadTile(blk)
		if err != nil {
			t.Fatal(err)
		}
		size := 1 << uint(level)
		start := []int{pos[0] * size, pos[1] * size}
		want := a.SumRange(start, []int{size, size}) / float64(size*size)
		if math.Abs(data[0]-want) > 1e-8 {
			t.Fatalf("tile %d scaling = %g, want %g", blk, data[0], want)
		}
	}
}

func TestAffectedTilesShiftMatchesTheory(t *testing.T) {
	// 1-d SHIFT of an aligned block touches about M/B tiles (§4.2): the
	// subtree of M-1 details split into tiles of B-1 details.
	n, m, b := 10, 6, 2
	tiling := NewOneD(n, b)
	k := 3
	count := AffectedTiles(tiling, func(visit func(coords []int)) {
		for j := 1; j <= m; j++ {
			for i := 0; i < 1<<uint(m-j); i++ {
				visit([]int{haar.Index(n, j, k<<uint(m-j)+i)})
			}
		}
	})
	want := ((1 << uint(m)) - 1) / ((1 << uint(b)) - 1) // (M-1)/(B-1) when aligned
	if count != want {
		t.Errorf("shift touched %d tiles, want %d", count, want)
	}
	if theory := TheoreticalShiftTilesOneD(m, b); count < theory {
		t.Errorf("measured %d below the O(M/B) shape %d", count, theory)
	}
}

func TestAffectedTilesSplitMatchesTheory(t *testing.T) {
	// 1-d SPLIT contributions lie on a root path: about (n-m)/b tiles.
	n, m, b := 12, 4, 3
	tiling := NewOneD(n, b)
	k := 77
	count := AffectedTiles(tiling, func(visit func(coords []int)) {
		for j := m + 1; j <= n; j++ {
			visit([]int{haar.Index(n, j, k>>uint(j-m))})
		}
		visit([]int{0})
	})
	theory := TheoreticalSplitTilesOneD(n, m, b)
	if count > theory+1 {
		t.Errorf("split touched %d tiles, theory %d", count, theory)
	}
}
