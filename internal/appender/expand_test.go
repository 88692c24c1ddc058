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

// expandOld is the expansion as it was before the flat pass, kept verbatim
// as the oracle: a walk over every coefficient's coordinates, grouped by old
// block in a map of maps, relocated one Locate at a time.
func (a *Appender) expandOld(dim int) (storage.Stats, error) {
	oldShape := a.Shape()
	oldStore, oldCounting := a.store, a.counting
	oldTiling := oldStore.Tiling().(*tile.Standard)
	nOld := bitutil.Log2(oldShape[dim])
	preOld := oldCounting.Stats()

	a.shape[dim] *= 2
	if err := a.rebuildStore(); err != nil {
		return storage.Stats{}, err
	}
	newTiling := a.store.Tiling()

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
	// The expanded transform is one atomic batch; only after it is durable
	// may the previous generation be retired.
	if err := a.store.Commit(); err != nil {
		return storage.Stats{}, err
	}
	// Fold the old store's lifetime I/O into the running totals and report
	// this expansion's own cost: the old generation's reads since the
	// expansion began plus everything on the fresh generation's counter —
	// the re-indexed writes and the expansion batch's sync/commit. Keeping
	// the full cost out of MergeIO is what lets stats alone verify the
	// fsync-amortization claims.
	oldStats := oldCounting.Stats()
	a.accumulated = a.accumulated.Add(oldStats)
	cost := oldStats.Sub(preOld).Add(a.counting.Stats())
	a.expansionTotal = a.expansionTotal.Add(cost)
	return cost, oldStore.Close()
}

// TestExpandMatchesOldPath holds the flat expansion to the coordinate walk
// it replaced: the same stored blocks, bit for bit, at the same I/O.
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
	}{
		{[]int{1}, 2, 0},
		{[]int{16}, 2, 0},
		{[]int{32}, 3, 0},
		{[]int{8, 16}, 2, 1},
		{[]int{16, 4}, 3, 0},
		{[]int{64, 64}, 3, 1},
		{[]int{4, 8, 4}, 1, 1},
		{[]int{2, 4, 16}, 2, 2},
	}
	for _, tc := range cases {
		for _, name := range []string{"dense", "sparse", "narrow", "zero"} {
			t.Run(fmt.Sprintf("%v tile %d dim %d %s", tc.shape, tc.b, tc.dim, name), func(t *testing.T) {
				rng := rand.New(rand.NewSource(47))
				slab := fills[name](rng, tc.shape...)
				flat, err := New(tc.shape, tc.b)
				if err != nil {
					t.Fatal(err)
				}
				old, err := New(tc.shape, tc.b)
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range []*Appender{flat, old} {
					if _, err := a.Append(tc.dim, slab); err != nil {
						t.Fatal(err)
					}
				}
				// Twice, so the second pass starts from an expanded layout.
				for pass := 0; pass < 2; pass++ {
					got, err := flat.expand(tc.dim)
					if err != nil {
						t.Fatal(err)
					}
					want, err := old.expandOld(tc.dim)
					if err != nil {
						t.Fatal(err)
					}
					if got != want || flat.TotalIO() != old.TotalIO() {
						t.Fatalf("pass %d: expansion I/O %+v (lifetime %+v), old path %+v (lifetime %+v)", pass, got, flat.TotalIO(), want, old.TotalIO())
					}
					blks := make([]int, flat.Store().Tiling().NumBlocks())
					for i := range blks {
						blks[i] = i
					}
					gotTiles, err := flat.Store().ReadTiles(blks)
					if err != nil {
						t.Fatal(err)
					}
					wantTiles, err := old.Store().ReadTiles(blks)
					if err != nil {
						t.Fatal(err)
					}
					for i := range blks {
						for slot := range gotTiles[i] {
							if gotTiles[i][slot] != wantTiles[i][slot] {
								t.Fatalf("pass %d: block %d slot %d holds %v, old path %v", pass, i, slot, gotTiles[i][slot], wantTiles[i][slot])
							}
						}
					}
				}
			})
		}
	}
}

// TestExpandAllocBudget: an expansion allocates per block, not per
// coefficient. The coordinate walk made at least two allocations for each of
// the 64 coefficients of a block.
func TestExpandAllocBudget(t *testing.T) {
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
		perBlock := (withExpand - allocs) / float64(st.Writes)
		t.Logf("64x%d: %.0f allocations for %d blocks written, %.2f per block", cols, withExpand-allocs, st.Writes, perBlock)
		if perBlock > 4 {
			t.Errorf("64x%d: %.2f allocations per new block written, budget 4", cols, perBlock)
		}
	}
}
