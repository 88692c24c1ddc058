package tile

import (
	"math/bits"
	"slices"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/dyadic"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/storage"
)

func TestBatchCoalescesBlockIO(t *testing.T) {
	tiling := NewOneD(6, 2)
	counting := storage.NewCounting(storage.NewMemStore(tiling.BlockSize()))
	st, err := NewStore(counting, tiling)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch(st)
	// Touch many coefficients inside one tile: the finest-level details of
	// indices 32..35 live in the same subtree band but different tiles;
	// use a path instead — indices 1, 2, 3 share the top tile for b=2.
	for _, idx := range []int{1, 2, 3} {
		if err := b.Add([]int{idx}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if b.Touched() != 1 {
		t.Fatalf("touched %d blocks, want 1", b.Touched())
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	stats := counting.Stats()
	if stats.Reads != 1 || stats.Writes != 1 {
		t.Errorf("stats = %+v, want one read and one write", stats)
	}
}

func TestBatchAddAccumulates(t *testing.T) {
	tiling := NewOneD(4, 2)
	st, err := NewStore(storage.NewMemStore(tiling.BlockSize()), tiling)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch(st)
	if err := b.Add([]int{5}, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.Add([]int{5}, 3); err != nil {
		t.Fatal(err)
	}
	if err := b.Set([]int{6}, 7); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if v, _ := st.Get([]int{5}); v != 5 {
		t.Errorf("accumulated value %g", v)
	}
	if v, _ := st.Get([]int{6}); v != 7 {
		t.Errorf("set value %g", v)
	}
}

func TestBatchFlushResets(t *testing.T) {
	tiling := NewOneD(4, 2)
	st, err := NewStore(storage.NewMemStore(tiling.BlockSize()), tiling)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch(st)
	if err := b.Add([]int{3}, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if b.Touched() != 0 {
		t.Error("batch not reset after flush")
	}
	// A second flush is a no-op.
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchSeesPriorState(t *testing.T) {
	tiling := NewOneD(4, 2)
	st, err := NewStore(storage.NewMemStore(tiling.BlockSize()), tiling)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Set([]int{9}, 10); err != nil {
		t.Fatal(err)
	}
	b := NewBatch(st)
	if err := b.Add([]int{9}, 5); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if v, _ := st.Get([]int{9}); v != 15 {
		t.Errorf("read-modify-write got %g, want 15", v)
	}
}

func TestBlockCapacitiesSumToDomain(t *testing.T) {
	for _, c := range []struct {
		shape  []int
		tiling Tiling
	}{
		{[]int{64}, NewOneD(6, 2)},
		{[]int{16, 16}, NewStandard([]int{4, 4}, 2)},
		{[]int{16, 16}, NewNonStandard(4, 2, 2)},
		{[]int{8, 8}, NewSequential([]int{8, 8}, 16)},
	} {
		caps := BlockCapacities(c.shape, c.tiling)
		total := 0
		for _, v := range caps {
			total += v
		}
		want := 1
		for _, s := range c.shape {
			want *= s
		}
		if total != want {
			t.Errorf("%T: capacities sum to %d, want %d", c.tiling, total, want)
		}
	}
}

// TestNonStandardCapacitiesCountLocations holds the non-standard closed
// form to a count of where Locate puts every coefficient, with n a
// multiple of b and not, n below b, a single cell, and d = 1 to 3.
func TestNonStandardCapacitiesCountLocations(t *testing.T) {
	for _, c := range []struct{ n, d, b int }{{0, 2, 2}, {1, 2, 2}, {3, 2, 2}, {4, 2, 2}, {4, 2, 3}, {5, 1, 2}, {4, 3, 1}, {2, 3, 3}} {
		nt := NewNonStandard(c.n, c.d, c.b)
		want := make(map[int]int)
		ndarray.New(nt.Domain()...).Each(func(coords []int, _ float64) {
			block, _ := nt.Locate(coords)
			want[block]++
		})
		got := BlockCapacities(nt.Domain(), nt)
		if len(got) != len(want) {
			t.Fatalf("n=%d d=%d b=%d: %d blocks, Locate reaches %d", c.n, c.d, c.b, len(got), len(want))
		}
		for block, w := range want {
			if got[block] != w {
				t.Fatalf("n=%d d=%d b=%d: block %d capacity %d, Locate puts %d there", c.n, c.d, c.b, block, got[block], w)
			}
		}
	}
}

func TestWriteArrayRoundTrip(t *testing.T) {
	tiling := NewNonStandard(3, 2, 2)
	st, err := NewStore(storage.NewMemStore(tiling.BlockSize()), tiling)
	if err != nil {
		t.Fatal(err)
	}
	hat := ndarray.New(8, 8)
	for i := range hat.Data() {
		hat.Data()[i] = float64(i) + 1
	}
	if err := WriteArray(st, hat); err != nil {
		t.Fatal(err)
	}
	bad := 0
	hat.Each(func(coords []int, v float64) {
		got, err := st.Get(coords)
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			bad++
		}
	})
	if bad != 0 {
		t.Errorf("%d coefficients differ after WriteArray", bad)
	}
}

// TestChunkCapacitiesCountKernelTouches holds ChunkCapacities' closed forms
// to the touches the kernels record over every chunk of a whole-domain
// transform, per block: standard tilings of d = 1 to 3, square and not, b
// dividing n and not, growth-ordered too; non-standard of d = 1 to 3;
// and a Sequential tiling under each form, every chunk size.
func TestChunkCapacitiesCountKernelTouches(t *testing.T) {
	type geometry struct {
		shape       []int
		tiling      Tiling
		nonStandard bool
	}
	var cases []geometry
	for _, c := range []struct {
		n []int
		b int
	}{{[]int{5}, 2}, {[]int{4, 4}, 2}, {[]int{5, 3}, 2}, {[]int{3, 2, 4}, 1}, {[]int{4, 4}, 3}} {
		shape := make([]int, len(c.n))
		for i, ni := range c.n {
			shape[i] = 1 << uint(ni)
		}
		cases = append(cases,
			geometry{shape, NewStandard(c.n, c.b), false},
			geometry{shape, NewGrowthStandard(c.n, c.b, len(c.n)-1), false},
			geometry{shape, NewSequential(shape, 4), false})
	}
	for _, c := range []struct{ n, d, b int }{{5, 1, 2}, {4, 2, 2}, {4, 2, 3}, {3, 3, 1}} {
		shape := make([]int, c.d)
		for i := range shape {
			shape[i] = 1 << uint(c.n)
		}
		cases = append(cases,
			geometry{shape, NewNonStandard(c.n, c.d, c.b), true},
			geometry{shape, NewSequential(shape, 8), true})
	}
	for _, g := range cases {
		d, top := len(g.shape), bits.Len(uint(slices.Max(g.shape)))-1
		for m := 0; m <= top; m++ {
			want := make([]int, g.tiling.NumBlocks())
			set := NewBucketSet(g.tiling.BlockSize())
			levels, grid := make([]int, d), make([]int, d)
			chunks := 1
			for i, e := range g.shape {
				levels[i] = min(m, bits.Len(uint(e))-1)
				grid[i] = e >> uint(levels[i])
				chunks *= grid[i]
			}
			hat := ndarray.New(func() []int {
				s := make([]int, d)
				for i, l := range levels {
					s[i] = 1 << uint(l)
				}
				return s
			}()...)
			pos, block := make([]int, d), make(dyadic.Range, d)
			for seq := 0; seq < chunks; seq++ {
				for i, rest := d-1, seq; i >= 0; i, rest = i-1, rest/grid[i] {
					pos[i] = rest % grid[i]
					block[i] = dyadic.Interval{Level: levels[i], Pos: pos[i]}
				}
				if g.nonStandard {
					AccumulateShiftNonStandard(g.tiling, g.shape, m, pos, hat, set)
					AccumulateSplitNonStandard(g.tiling, g.shape, m, pos, 0, set)
				} else {
					AccumulateEmbedStandard(g.tiling, g.shape, block, hat, set)
				}
				for _, b := range set.Buckets() {
					want[b.Block] += b.Touches
				}
				set.Reset()
			}
			if got := ChunkCapacities(g.tiling, g.shape, m, g.nonStandard); !slices.Equal(got, want) {
				t.Errorf("%T shape %v non-standard=%v m=%d: capacities %v, kernels touch %v", g.tiling, g.shape, g.nonStandard, m, got, want)
			}
		}
	}
}
