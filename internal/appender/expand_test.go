package appender

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/bitutil"
	"github.com/shiftsplit/shiftsplit/internal/haar"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
)

// expandOld is the expansion as it was before it became a flat pass and
// before it worked in place, kept as the values oracle: a walk over every
// coefficient's coordinates, grouped by old block in a map of maps,
// relocated one Locate at a time into a fresh in-memory store — what each
// domain generation used to be.
func (a *Appender) expandOld(dim int) (storage.Stats, error) {
	oldShape := a.Shape()
	oldStore, oldCounting := a.store, a.counting
	oldTiling := oldStore.Tiling().(*tile.Standard)
	nOld := bitutil.Log2(oldShape[dim])
	preOld := oldCounting.Stats()

	a.shape[dim] *= 2
	newTiling := oldTiling.Grown(dim)
	a.base = storage.NewMemStore(newTiling.BlockSize())
	a.counting = storage.NewCounting(a.base)
	if err := a.retile(newTiling); err != nil {
		return storage.Stats{}, err
	}

	// Group old coefficients by their old block so each old block is read
	// exactly once.
	byBlock := make(map[int]map[int][]int) // old block -> slot -> coords
	coords := make([]int, len(oldShape))
	var rec func(i int)
	rec = func(i int) {
		if i == len(oldShape) {
			blk, slot := oldTiling.Locate(coords)
			m, ok := byBlock[blk]
			if !ok {
				m = make(map[int][]int)
				byBlock[blk] = m
			}
			m[slot] = append([]int(nil), coords...)
			return
		}
		for v := 0; v < oldShape[i]; v++ {
			coords[i] = v
			rec(i + 1)
		}
	}
	rec(0)

	pending := make(map[int][]float64) // new block -> data
	add := func(c []int, v float64) {
		blk, slot := newTiling.Locate(c)
		data, ok := pending[blk]
		if !ok {
			data = make([]float64, newTiling.BlockSize())
			pending[blk] = data
		}
		data[slot] += v
	}
	// Read every touched old block with one vectored request, in ascending
	// id order — which also makes the accumulation order into pending
	// blocks deterministic where map iteration used to randomize it.
	oldBlks := make([]int, 0, len(byBlock))
	for blk := range byBlock {
		oldBlks = append(oldBlks, blk)
	}
	sort.Ints(oldBlks)
	oldData, err := oldStore.ReadTiles(oldBlks)
	if err != nil {
		return storage.Stats{}, err
	}
	for i, blk := range oldBlks {
		data, slots := oldData[i], byBlock[blk]
		for slot, c := range slots {
			v := data[slot]
			if v == 0 {
				continue
			}
			nc := append([]int(nil), c...)
			idx := c[dim]
			if idx >= 1 {
				j, k := haar.LevelPos(nOld, idx)
				nc[dim] = haar.Index(nOld+1, j, k)
				add(nc, v)
			} else {
				// The old average splits: half to the new average, half to
				// the new root detail (the old data is the left subtree).
				nc[dim] = 0
				add(nc, v/2)
				nc[dim] = 1
				add(nc, v/2)
			}
		}
	}
	blks := make([]int, 0, len(pending))
	for blk := range pending {
		blks = append(blks, blk)
	}
	sort.Ints(blks)
	newData := make([][]float64, len(blks))
	for i, blk := range blks {
		newData[i] = pending[blk]
	}
	if err := a.store.WriteTiles(blks, newData); err != nil {
		return storage.Stats{}, err
	}
	cost := oldCounting.Stats().Sub(preOld).Add(a.counting.Stats())
	return cost, oldStore.Close()
}

// TestExpandMatchesOldPath holds the in-place expansion to the full rewrite
// it replaced, by values: every located coefficient of the doubled domain
// equal with ==, and the reconstructions equal. Raw blocks may differ —
// slot 0 of a top tile demoted to an ordinary one keeps the old average, a
// redundant scaling slot no appender reader uses — and so does the I/O,
// which must be no more than the rewrite's.
func TestExpandMatchesOldPath(t *testing.T) {
	type fill func(rng *rand.Rand, shape ...int) *ndarray.Array
	sparse := func(rng *rand.Rand, shape ...int) *ndarray.Array {
		a := ndarray.New(shape...)
		for i := range a.Data() {
			if rng.Intn(9) == 0 {
				a.Data()[i] = rng.NormFloat64()
			}
		}
		return a
	}
	// Only the first columns are non-zero, so whole blocks of the transform
	// stay zero and unwritten.
	narrow := func(rng *rand.Rand, shape ...int) *ndarray.Array {
		a := ndarray.New(shape...)
		last := shape[len(shape)-1]
		for i := range a.Data() {
			if i%last == 0 {
				a.Data()[i] = rng.NormFloat64()
			}
		}
		return a
	}
	zero := func(_ *rand.Rand, shape ...int) *ndarray.Array { return ndarray.New(shape...) }
	fills := map[string]fill{"dense": randSlab, "sparse": sparse, "narrow": narrow, "zero": zero}
	cases := []struct {
		shape  []int
		b, dim int
		first  int // the first append's dimension: the outermost radix
	}{
		{[]int{1}, 2, 0, 0},
		{[]int{16}, 2, 0, 0},
		{[]int{32}, 3, 0, 0},
		{[]int{8, 16}, 2, 1, 1},
		{[]int{16, 4}, 3, 0, 0},
		{[]int{64, 64}, 3, 1, 1},
		{[]int{4, 8, 4}, 1, 1, 1},
		{[]int{2, 4, 16}, 2, 2, 2},
		// Growing a dimension that is not the outermost renames blocks.
		{[]int{8, 16}, 2, 0, 1},
		{[]int{4, 8, 4}, 1, 2, 0},
	}
	for _, tc := range cases {
		label := fmt.Sprintf("%v tile %d dim %d", tc.shape, tc.b, tc.dim)
		if tc.first != tc.dim {
			label += fmt.Sprintf(" first %d", tc.first)
		}
		for _, name := range []string{"dense", "sparse", "narrow", "zero"} {
			t.Run(label+" "+name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(47))
				slab := fills[name](rng, tc.shape...)
				inPlace, err := New(tc.shape, tc.b)
				if err != nil {
					t.Fatal(err)
				}
				old, err := New(tc.shape, tc.b)
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range []*Appender{inPlace, old} {
					if _, err := a.Append(tc.first, slab); err != nil {
						t.Fatal(err)
					}
				}
				// Three times, so later passes start from an expanded layout
				// and the top band both fills and wraps.
				for pass := 0; pass < 3; pass++ {
					got, err := inPlace.expand(tc.dim)
					if err != nil {
						t.Fatal(err)
					}
					want, err := old.expandOld(tc.dim)
					if err != nil {
						t.Fatal(err)
					}
					// Along the outermost dimension nothing is renamed. Along
					// another, blocks move in place, and the ids they vacate
					// are zeroed where a fresh store had nothing to clear.
					if tc.dim == tc.first && got.Total() > want.Total() {
						t.Errorf("pass %d: in-place expansion I/O %+v, the full rewrite %+v", pass, got, want)
					}
					hat := ndarray.New(inPlace.Shape()...)
					hat.Each(func(c []int, _ float64) {
						g, gerr := inPlace.Store().Get(c)
						w, werr := old.Store().Get(c)
						if gerr != nil || werr != nil {
							t.Fatal(gerr, werr)
						}
						if g != w {
							t.Fatalf("pass %d: coefficient %v is %v, the full rewrite has %v", pass, c, g, w)
						}
					})
					gotData, err := inPlace.Reconstruct()
					if err != nil {
						t.Fatal(err)
					}
					wantData, err := old.Reconstruct()
					if err != nil {
						t.Fatal(err)
					}
					for i, v := range wantData.Data() {
						if gotData.Data()[i] != v {
							t.Fatalf("pass %d: reconstructed cell %d is %v, the full rewrite gives %v", pass, i, gotData.Data()[i], v)
						}
					}
				}
			})
		}
	}
}

// TestExpandCostIndependentOfExtent: doubling a full [64, cols] domain
// along its outermost, growth-ordered dimension reads and rewrites the top
// band along it times the cross-section — 9 tiles of the 64 rows — at every
// extent, whether the top band was partial (256, 2 048, 16 384 columns) or
// full (512: the old top tiles stay and new ones are written beside them).
func TestExpandCostIndependentOfExtent(t *testing.T) {
	for _, cols := range []int{256, 512, 2048, 16384} {
		rng := rand.New(rand.NewSource(59))
		a, err := New([]int{64, cols}, 3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Append(1, randSlab(rng, 64, cols)); err != nil {
			t.Fatal(err)
		}
		st, err := a.expand(1)
		if err != nil {
			t.Fatal(err)
		}
		if st.Reads != 9 || st.Writes != 9 {
			t.Errorf("64x%d: expansion read %d and wrote %d blocks, want 9 each", cols, st.Reads, st.Writes)
		}
	}
}

// TestExpandAllocBudget: an expansion allocates its per-dimension tables
// and the blocks it rewrites, not per coefficient and not per block of the
// domain — the same budget at every extent. The coordinate walk made at
// least two allocations for each of the 64 coefficients of every block.
func TestExpandAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector: allocation counts are not the product's")
	}
	const budget = 96
	for _, cols := range []int{256, 2048} {
		rng := rand.New(rand.NewSource(53))
		fill := randSlab(rng, 64, cols)
		var a *Appender
		var st storage.Stats
		allocs := testing.AllocsPerRun(3, func() {
			var err error
			if a, err = New([]int{64, cols}, 3); err != nil {
				t.Fatal(err)
			}
			if _, err := a.Append(1, fill); err != nil {
				t.Fatal(err)
			}
		})
		withExpand := testing.AllocsPerRun(3, func() {
			var err error
			if a, err = New([]int{64, cols}, 3); err != nil {
				t.Fatal(err)
			}
			if _, err := a.Append(1, fill); err != nil {
				t.Fatal(err)
			}
			if st, err = a.expand(1); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("64x%d: %.0f allocations for %d blocks written", cols, withExpand-allocs, st.Writes)
		if withExpand-allocs > budget {
			t.Errorf("64x%d: %.0f allocations per expansion, budget %d", cols, withExpand-allocs, budget)
		}
	}
}
