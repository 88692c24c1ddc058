package tile

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// A lookup of a block the plan did not name panics with a message naming
// the block, whether the id falls between two fetched blocks or past the
// last: the binary search's insertion index would otherwise hand back a
// neighbour's frame or fail with a bare index error.
func TestFrameOfUnplannedBlockPanics(t *testing.T) {
	tiling := NewSequential([]int{64}, 4)
	st, err := NewStore(storage.NewMemStore(tiling.BlockSize()), tiling)
	if err != nil {
		t.Fatal(err)
	}
	var f FetchSet
	f.Want(3)
	f.Want(7)
	if err := f.Fetch(st, nil); err != nil {
		t.Fatal(err)
	}
	for _, block := range []int{5, 9} {
		want := fmt.Sprintf("tile: FetchSet.Frame(%d): block not in the fetched plan", block)
		func() {
			defer func() {
				if got := recover(); got != want {
					t.Errorf("Frame(%d) panicked with %v, want %q", block, got, want)
				}
			}()
			f.Frame(block)
		}()
	}
	if len(f.Frame(3)) != 4 || len(f.Frame(7)) != 4 {
		t.Fatal("the planned blocks' frames are gone after the failed lookups")
	}
}

// TestReadArrayMatchesLocate holds ReadArray's block-order scatter to the
// per-coefficient walk it replaced, one Locate and one frame lookup per
// coefficient, bit for bit: every block holds random values in every slot,
// over standard tilings of d = 1 to 3, square and not, b dividing n and
// not, growth-ordered too, and non-standard tilings of d = 1 to 3, with
// more blocks than one read group holds.
func TestReadArrayMatchesLocate(t *testing.T) {
	type geometry struct {
		shape  []int
		tiling Tiling
	}
	var cases []geometry
	for _, c := range []struct {
		n []int
		b int
	}{{[]int{7}, 2}, {[]int{5, 5}, 2}, {[]int{6, 3}, 2}, {[]int{3, 5}, 4}, {[]int{3, 2, 4}, 1}, {[]int{0, 4}, 2}, {[]int{5, 6}, 3}} {
		shape := make([]int, len(c.n))
		for i, ni := range c.n {
			shape[i] = 1 << uint(ni)
		}
		cases = append(cases, geometry{shape, NewStandard(c.n, c.b)}, geometry{shape, NewGrowthStandard(c.n, c.b, 0)})
	}
	for _, c := range []struct{ n, d, b int }{{0, 2, 2}, {7, 1, 2}, {5, 2, 2}, {5, 2, 3}, {4, 2, 4}, {3, 3, 1}, {4, 3, 2}} {
		tiling := NewNonStandard(c.n, c.d, c.b)
		cases = append(cases, geometry{tiling.Domain(), tiling})
	}
	rng := rand.New(rand.NewSource(1))
	for _, g := range cases {
		st, err := NewStore(storage.NewMemStore(g.tiling.BlockSize()), g.tiling)
		if err != nil {
			t.Fatal(err)
		}
		frames := make([][]float64, g.tiling.NumBlocks())
		for id := range frames {
			frames[id] = make([]float64, g.tiling.BlockSize())
			for slot := range frames[id] {
				frames[id][slot] = rng.NormFloat64()
			}
			if err := st.WriteTile(id, frames[id]); err != nil {
				t.Fatal(err)
			}
		}
		got, err := ReadArray(st, g.shape)
		if err != nil {
			t.Fatal(err)
		}
		want := ndarray.New(g.shape...)
		want.Each(func(coords []int, _ float64) {
			block, slot := g.tiling.Locate(coords)
			want.Set(frames[block][slot], coords...)
		})
		for i, w := range want.Data() {
			if math.Float64bits(got.Data()[i]) != math.Float64bits(w) {
				t.Fatalf("%T shape %v: cell %d = %v, Locate's frame holds %v", g.tiling, g.shape, i, got.Data()[i], w)
			}
		}
	}
}
