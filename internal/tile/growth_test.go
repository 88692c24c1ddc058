package tile

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/haar"
)

// topDownLocate1D is the top-down numbering as OneD computed it before the
// numbering became table data: bands from the root down, cumulative tile
// counts per band. It is the oracle that NewOneD's ids did not move.
func topDownLocate1D(n, b, idx int) (block, slot int) {
	h0 := n % b
	if h0 == 0 {
		h0 = min(b, n)
	}
	cum := []int{0}
	for s := 0; s < n; {
		cum = append(cum, cum[len(cum)-1]+1<<uint(s))
		if s == 0 {
			s = h0
		} else {
			s += b
		}
	}
	if idx == 0 {
		return 0, 0
	}
	depth := bits.Len(uint(idx)) - 1
	band, start := 0, 0
	if depth >= h0 {
		band = 1 + (depth-h0)/b
		start = h0 + (band-1)*b
	}
	delta := depth - start
	root := idx >> uint(delta)
	return cum[band] + root - 1<<uint(start), idx - (root-1)<<uint(delta)
}

// TestNewStandardIDsUnchanged: the default numbering — top-down tiles,
// dimension 0 the outermost radix — is the one every served store was
// written with.
func TestNewStandardIDsUnchanged(t *testing.T) {
	for _, n := range [][]int{{0}, {5}, {7}, {4, 3}, {6, 6}, {2, 5, 3}} {
		for b := 1; b <= 3; b++ {
			tiling := NewStandard(n, b)
			eachCoord(n, func(c []int) {
				block, slot := 0, 0
				for t, ct := range c {
					bt, st := topDownLocate1D(n[t], b, ct)
					block = block*NewOneD(n[t], b).NumBlocks() + bt
					slot = slot<<uint(b) + st
				}
				if gb, gs := tiling.Locate(c); gb != block || gs != slot {
					t.Fatalf("n=%v b=%d: Locate(%v) = (%d,%d), the top-down mixed radix gives (%d,%d)", n, b, c, gb, gs, block, slot)
				}
			})
		}
	}
}

// TestGrowthOrderOneD: at every n the growth-order ids are exactly
// [0, NumBlocks), a detail keeps its block as the tree grows, and the
// tiling is the top-down one up to a permutation of block ids — same slots,
// roots, heights and tile contents.
func TestGrowthOrderOneD(t *testing.T) {
	for b := 1; b <= 4; b++ {
		var prev *OneD
		for n := 0; n <= 11; n++ {
			g, td := newOneD(n, b, true), NewOneD(n, b)
			if g.NumBlocks() != td.NumBlocks() {
				t.Fatalf("b=%d n=%d: %d growth blocks, %d top-down", b, n, g.NumBlocks(), td.NumBlocks())
			}
			perm := make([]int, td.NumBlocks()) // top-down id -> growth id
			for i := range perm {
				perm[i] = -1
			}
			for idx := 0; idx < 1<<uint(n); idx++ {
				gb, gs := g.Locate1D(idx)
				tb, ts := td.Locate1D(idx)
				if gs != ts {
					t.Fatalf("b=%d n=%d idx=%d: slot %d, top-down %d", b, n, idx, gs, ts)
				}
				if perm[tb] == -1 {
					perm[tb] = gb
				} else if perm[tb] != gb {
					t.Fatalf("b=%d n=%d idx=%d: top-down tile %d split over growth tiles %d and %d", b, n, idx, tb, perm[tb], gb)
				}
				if prev != nil && idx > 0 {
					j, k := haar.LevelPos(n, idx)
					if j < n && k < 1<<uint(n-1-j) { // it existed at n-1
						if pb, _ := prev.Locate1D(haar.Index(n-1, j, k)); pb != gb {
							t.Fatalf("b=%d: detail (%d,%d) moved from block %d at n=%d to %d", b, j, k, pb, n-1, gb)
						}
					}
				}
			}
			ids := slices.Clone(perm)
			slices.Sort(ids)
			for i, id := range ids {
				if id != i {
					t.Fatalf("b=%d n=%d: growth ids %v are not [0,%d)", b, n, ids, len(ids))
				}
			}
			for tb, gb := range perm {
				gj, gk := g.RootOf(gb)
				if tj, tk := td.RootOf(tb); gj != tj || gk != tk {
					t.Fatalf("b=%d n=%d: RootOf(%d) = (%d,%d), top-down RootOf(%d) = (%d,%d)", b, n, gb, gj, gk, tb, tj, tk)
				}
				if g.TileHeight(gb) != td.TileHeight(tb) {
					t.Fatalf("b=%d n=%d: TileHeight(%d) = %d, top-down %d", b, n, gb, g.TileHeight(gb), td.TileHeight(tb))
				}
				if gi, ti := g.TileIndices(gb), td.TileIndices(tb); !slices.Equal(gi, ti) {
					t.Fatalf("b=%d n=%d: TileIndices(%d) = %v, top-down %v", b, n, gb, gi, ti)
				}
			}
			if perm[0] != g.top {
				t.Fatalf("b=%d n=%d: top tile is block %d, the tiling says %d", b, n, perm[0], g.top)
			}
			prev = g
		}
	}
}

// TestGrowthOrderStandard is the d-dimensional half: for each choice of
// outermost dimension, ids are exactly [0, NumBlocks), growing the outermost
// dimension keeps the block of every coefficient that is a detail along it,
// and the layout is NewStandard's up to a permutation of block ids.
func TestGrowthOrderStandard(t *testing.T) {
	for _, n := range [][]int{{0, 2}, {2, 3}, {4, 1, 2}, {3, 5}, {1, 2, 4}} {
		for b := 1; b <= 3; b++ {
			for outer := range n {
				name := fmt.Sprintf("n=%v b=%d outer=%d", n, b, outer)
				g, td := NewGrowthStandard(n, b, outer), NewStandard(n, b)
				grown := g.Grown(outer)
				perm := map[int]int{}
				seen := make([]bool, g.NumBlocks())
				eachCoord(n, func(c []int) {
					gb, gs := g.Locate(c)
					tb, ts := td.Locate(c)
					if gs != ts {
						t.Fatalf("%s: Locate(%v) slot %d, top-down %d", name, c, gs, ts)
					}
					if p, ok := perm[tb]; ok && p != gb {
						t.Fatalf("%s: top-down block %d split over %d and %d", name, tb, p, gb)
					}
					perm[tb] = gb
					seen[gb] = true
					if c[outer] == 0 {
						return
					}
					j, k := haar.LevelPos(n[outer], c[outer]) // the old tree is the left subtree
					nc := slices.Clone(c)
					nc[outer] = haar.Index(n[outer]+1, j, k)
					if nb, _ := grown.Locate(nc); nb != gb {
						t.Fatalf("%s: %v moved from block %d to %d when dimension %d grew", name, c, gb, nb, outer)
					}
				})
				for id, ok := range seen {
					if !ok {
						t.Fatalf("%s: block %d of %d holds nothing", name, id, g.NumBlocks())
					}
				}
			}
		}
	}
}

// eachCoord visits every coordinate of the domain with log2 extents n.
func eachCoord(n []int, visit func([]int)) {
	c := make([]int, len(n))
	for {
		visit(c)
		t := len(n) - 1
		for ; t >= 0; t-- {
			if c[t]++; c[t] < 1<<uint(n[t]) {
				break
			}
			c[t] = 0
		}
		if t < 0 {
			return
		}
	}
}
