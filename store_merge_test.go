package shiftsplit

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/core"
)

// mergeBlockOldPath is Store.MergeBlock as it ran before the flat kernels:
// the core enumeration closures hand one coordinate slice per contribution
// to a map of working tiles, each loaded by its own ReadTile on first touch
// and written back in ascending order. It is the reference the bucketed
// MergeBlock is held to: the same blocks read and written, every
// coefficient ==-equal.
func mergeBlockOldPath(s *Store, b Block, bHat *Array) error {
	if err := validateMerge(s.opts.Shape, s.opts.Form, b, bHat); err != nil {
		return err
	}
	if err := s.maintenanceGuard(); err != nil {
		return err
	}
	tiles := make(map[int][]float64)
	var applyErr error
	add := func(coords []int, delta float64) {
		if applyErr != nil {
			return
		}
		block, slot := s.tiling.Locate(coords)
		data, ok := tiles[block]
		if !ok {
			if data, applyErr = s.store.ReadTile(block); applyErr != nil {
				return
			}
			tiles[block] = data
		}
		data[slot] += delta
	}
	if s.opts.Form == Standard {
		core.EachEmbedStandard(s.opts.Shape, b.toRange(), bHat, add)
	} else {
		core.EachShiftNonStandard(s.opts.Shape, b.Levels[0], b.Pos, bHat, add)
		origin := make([]int, len(s.opts.Shape))
		core.EachSplitNonStandard(s.opts.Shape, b.Levels[0], b.Pos, bHat.At(origin...), add)
	}
	if applyErr != nil {
		return applyErr
	}
	ids := make([]int, 0, len(tiles))
	for id := range tiles {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	data := make([][]float64, len(ids))
	for i, id := range ids {
		data[i] = tiles[id]
	}
	if err := s.store.WriteTiles(ids, data); err != nil {
		return err
	}
	return s.commit()
}

// TestMergeBlockMatchesOldPath runs the same merges through MergeBlock and
// through the old per-coefficient path on twin stores and requires the
// stored transforms to be ==-equal and the I/O counters identical.
func TestMergeBlockMatchesOldPath(t *testing.T) {
	type geometry struct {
		form     Form
		shape    []int
		tileBits int
		blocks   []Block
	}
	geometries := []geometry{
		// d = 1; b does not divide n = 5.
		{Standard, []int{32}, 2, []Block{CubeBlock(0, 13), CubeBlock(3, 2), CubeBlock(5, 0)}},
		{NonStandard, []int{32}, 2, []Block{CubeBlock(0, 31), CubeBlock(2, 5), CubeBlock(5, 0)}},
		// d = 2; non-cubic blocks on the standard form, n = 4 and 3 under b = 2.
		{Standard, []int{16, 8}, 2, []Block{
			{Levels: []int{0, 0}, Pos: []int{9, 6}},
			{Levels: []int{3, 1}, Pos: []int{1, 2}},
			{Levels: []int{0, 3}, Pos: []int{15, 0}},
			{Levels: []int{4, 3}, Pos: []int{0, 0}},
		}},
		{NonStandard, []int{32, 32}, 2, []Block{CubeBlock(0, 17, 30), CubeBlock(3, 2, 1), CubeBlock(5, 0, 0)}},
		{NonStandard, []int{16, 16}, 2, []Block{CubeBlock(1, 7, 0), CubeBlock(2, 3, 3), CubeBlock(4, 0, 0)}},
		// d = 3.
		{Standard, []int{8, 4, 8}, 2, []Block{
			{Levels: []int{0, 0, 0}, Pos: []int{7, 3, 5}},
			{Levels: []int{2, 1, 0}, Pos: []int{1, 0, 6}},
			{Levels: []int{3, 2, 3}, Pos: []int{0, 0, 0}},
		}},
		{NonStandard, []int{8, 8, 8}, 2, []Block{CubeBlock(0, 1, 2, 3), CubeBlock(1, 3, 0, 2), CubeBlock(3, 0, 0, 0)}},
	}
	stacks := []struct {
		name string
		opts StoreOptions
	}{
		{"plain", StoreOptions{}},
		{"durable", StoreOptions{Durable: true}},
		{"versioned", StoreOptions{Versioned: true}},
		{"durable+versioned", StoreOptions{Durable: true, Versioned: true}},
	}
	for _, g := range geometries {
		for _, stack := range stacks {
			name := fmt.Sprintf("%v/%s/%s", g.form, strings.Trim(fmt.Sprint(g.shape), "[]"), stack.name)
			t.Run(name, func(t *testing.T) {
				opts := stack.opts
				opts.Shape, opts.Form, opts.TileBits = g.shape, g.form, g.tileBits
				open := func() *Store {
					st, err := CreateStore(opts)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { st.Close() })
					return st
				}
				flat, old := open(), open()
				rng := rand.New(rand.NewSource(20))
				// Two rounds, so the second merges into non-zero tiles.
				for round := 0; round < 2; round++ {
					for _, b := range g.blocks {
						bHat := Transform(randArray(rng, b.Shape()...), g.form)
						if err := flat.MergeBlock(b, bHat); err != nil {
							t.Fatal(err)
						}
						if err := mergeBlockOldPath(old, b, bHat); err != nil {
							t.Fatal(err)
						}
					}
				}
				if got, want := flat.Stats(), old.Stats(); got != want {
					t.Errorf("I/O %+v, the per-coefficient path did %+v", got, want)
				}
				got, err := flat.ReadTransform()
				if err != nil {
					t.Fatal(err)
				}
				want, err := old.ReadTransform()
				if err != nil {
					t.Fatal(err)
				}
				for i, x := range want.Data() {
					if got.Data()[i] != x {
						t.Fatalf("coefficient %d = %v, the per-coefficient path stored %v", i, got.Data()[i], x)
					}
				}
			})
		}
	}
}

// TestMergeBlockRejectsMismatchedInput feeds MergeBlock and ClearBlock
// blocks and transforms that do not fit each other or the store: each must
// come back as an error before anything is staged.
func TestMergeBlockRejectsMismatchedInput(t *testing.T) {
	type rejectCase struct {
		name string
		b    Block
		bHat *Array // nil: ClearBlock
		want string
	}
	cases := []rejectCase{
		{"transform larger than the block", CubeBlock(2, 1, 1), NewArray(8, 8), "block transform shape"},
		{"transform smaller than the block", CubeBlock(3, 1, 1), NewArray(4, 8), "block transform shape"},
		{"transform of the wrong rank", CubeBlock(2, 1, 1), NewArray(4), "block transform shape"},
		{"block of the wrong rank", CubeBlock(2, 1), NewArray(4), "block"},
		{"block outside the domain", CubeBlock(2, 16, 0), NewArray(4, 4), "pos"},
		{"clear of a block outside the domain", CubeBlock(7, 0, 0), nil, "level"},
	}
	nonCubic := Block{Levels: []int{2, 1}, Pos: []int{1, 1}}
	for _, form := range []Form{Standard, NonStandard} {
		for _, versioned := range []bool{false, true} {
			st, err := CreateStore(StoreOptions{Shape: []int{64, 64}, Form: form, Versioned: versioned, Durable: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Materialize(randArray(rand.New(rand.NewSource(3)), 64, 64)); err != nil {
				t.Fatal(err)
			}
			all := cases
			if form == NonStandard {
				all = append(all[:len(all):len(all)],
					rejectCase{"non-cubic block", nonCubic, NewArray(4, 2), "cubic"},
					rejectCase{"clear of a non-cubic block", nonCubic, nil, "cubic"})
			}
			for _, tc := range all {
				t.Run(fmt.Sprintf("%v/versioned=%v/%s", form, versioned, tc.name), func(t *testing.T) {
					before, _, err := st.Point(5, 9)
					if err != nil {
						t.Fatal(err)
					}
					io := st.Stats()
					epoch, _ := st.EpochStats()
					if tc.bHat != nil {
						err = st.MergeBlock(tc.b, tc.bHat)
					} else {
						err = st.ClearBlock(tc.b)
					}
					if err == nil || !strings.Contains(err.Error(), tc.want) {
						t.Fatalf("err = %v, want one naming %q", err, tc.want)
					}
					if got := st.Stats(); got != io {
						t.Errorf("rejected input moved blocks: %+v -> %+v", io, got)
					}
					if got, _ := st.EpochStats(); got != epoch {
						t.Errorf("rejected input moved the epoch layer: %+v -> %+v", epoch, got)
					}
					st.ResetStats()
					if v, blocks, err := st.Point(5, 9); err != nil || v != before || blocks != 1 {
						t.Errorf("after a rejected input point (5, 9) = %v in %d blocks (%v), was %v in 1", v, blocks, err, before)
					}
				})
			}
			st.Close()
		}
	}
}

// TestMergeBlockAllocBudget gates the steady-state allocations of one 16x16
// merge on a versioned in-memory store: the embedding itself allocates only
// its per-call geometry tables, the rest is one epoch flip (table header,
// page and page-pointer slices, dirty pages, dead list) and the physical
// ids of the vectored write; the flip's frames and the apply's read frames
// come from slabs the epoch layer and the tile store keep. The standard
// budget is the measured steady state plus 20 %, the non-standard one the
// measured steady state: 16 and 13, where the frames cost 20 and 17 before
// the slabs (19 and 16 with only the flip's); the per-coefficient path
// this replaced took several hundred.
func TestMergeBlockAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector: allocation counts are not the product's")
	}
	budgets := map[Form]float64{Standard: 19, NonStandard: 13}
	for _, form := range []Form{Standard, NonStandard} {
		st, err := CreateStore(StoreOptions{Shape: []int{256, 256}, Form: form, TileBits: 4, Versioned: true})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		b := CubeBlock(4, 5, 9)
		bHat := Transform(randArray(rng, 16, 16), form)
		merge := func() {
			if err := st.MergeBlock(b, bHat); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ { // reach the allocator's and the pool's steady state
			merge()
		}
		got := testing.AllocsPerRun(50, merge)
		t.Logf("%v: %.1f allocs per 16x16 merge (budget %.0f)", form, got, budgets[form])
		if got > budgets[form] {
			t.Errorf("%v: %.1f allocs per merge, budget %.0f", form, got, budgets[form])
		}
		st.Close()
	}
}
