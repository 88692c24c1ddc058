// Package tile implements the paper's optimal coefficient-to-disk-block
// allocation strategy (§3): wavelet trees are partitioned into subtree tiles
// sized to fit one disk block, so that the path-to-root access pattern of
// reconstruction touches as few blocks as possible, and so that SHIFT-SPLIT
// operations touch B (respectively log B) times fewer tiles than
// coefficients (§4.2, Table 1).
//
// Three tilings are provided:
//
//   - OneD: binary subtrees of height b for a 1-d transform of size 2^n
//     (Figure 4), 2^b - 1 details plus the subtree root's scaling
//     coefficient per block of B = 2^b slots;
//   - Standard: the cross product of d OneD tilings for a standard-form
//     multidimensional transform (§3.2), B^d slots per block; and
//   - NonStandard: quadtree subtrees of height b for a non-standard
//     transform (Figure 7), (D^b-1)/(D-1) nodes of D-1 coefficients each
//     (D = 2^d) plus the root scaling, B^d slots per block.
//
// A Sequential tiling (flat row-major chunks of the coefficient array,
// ignoring tree structure) is included as the ablation baseline.
//
// Every standard-form operation reads or writes the cross product of one
// coefficient list per dimension: Lemma 2's range-sum lists, a point's
// leaf path, an extraction's dyadic pieces, a merge's SPLIT targets and
// SHIFT details, a tile root's scaling path. Plan holds those lists, each
// located in its dimension's OneD tiling, and walks the blocks of their
// cross product once each; the query kernels, extraction, progressive
// queries, the merge kernel and the scaling-slot step all plan on it.
//
// Every non-standard operation reads or writes the nodes of one box
// against the quadtree's levels: the cells a range sum cuts, a dyadic
// cube's path above it (SPLIT targets, inverse SPLIT, a tile root's
// scaling path, a point's leaf path) or its subtree (SHIFT targets,
// inverse SHIFT). NonStdPlan holds that box and walks the tiles holding
// its nodes once each, giving each level of a tile as a box of cells in
// it; the range sum, the leaf point, extraction, both merge kernels and
// both slot steps plan on it.
//
// Slot 0 of every tile is reserved for the scaling coefficient of the tile's
// root. For the tile containing the tree root this is the transform's
// overall average; for all other tiles it is redundant derived data that the
// paper stores to cut query cost (a point can then be reconstructed from a
// single block). The chunked engines (Materialize is their one-chunk case)
// write it on the same kernels and slot step as every bucketed update,
// which keeps it current in the tiles the update already touches
// (AccumulateScalingSlots).
package tile

import (
	"fmt"
	"math/bits"
	"sort"

	"github.com/shiftsplit/shiftsplit/internal/bitutil"
)

// Tiling maps coefficient coordinates of a transform to (block, slot).
type Tiling interface {
	// BlockSize returns the number of coefficient slots per block.
	BlockSize() int
	// NumBlocks returns the total number of blocks covering the domain.
	NumBlocks() int
	// Locate maps transform-layout coordinates to a block ID and a slot
	// within that block.
	Locate(coords []int) (block, slot int)
}

// OneD tiles the error tree of a 1-d transform of size 2^n into subtrees of
// height b. When b does not divide n the tile containing the tree root is
// shallower (height n mod b); every block still has 2^b slots.
//
// Bands are anchored at the leaves: band q, counted from the leaves, holds
// the nodes of levels qb+1..(q+1)b, so a tree grown by one level differs
// only in its top band. Which block id each tile gets is data of the
// tiling, in one of two orders. Top-down (NewOneD, the paper's) numbers the
// bands from the root down and each band's tiles left to right. Growth
// order (NewGrowthStandard's) gives a tile its id the first time it exists
// as n counts up from 0: the tiles of n levels are exactly the ids
// [0, NumBlocks()) at every n, and growing the tree renames no tile.
type OneD struct {
	n, b      int
	h0        int // height of the top band
	top       int // block of the top tile
	numBlocks int
	// levels[depth] locates the nodes at one tree depth; base[row+L] + k is
	// the block of the tile of that band whose root has translation k of
	// bit length L.
	levels []oneDLevel
	base   []int
	// runs are the maximal id ranges of one band's tiles with consecutive
	// translations, ascending by block: RootOf's inverse.
	runs []tileRun
}

// oneDLevel is what the nodes of one tree depth share: their band's row of
// OneD.base, their depth below their tile's root, and the flat index of the
// band's leftmost tile root.
type oneDLevel struct {
	row   int
	shift uint
	first int
}

// tileRun is a range of consecutive block ids from block on, holding tiles
// whose roots sit at level j with translations from k on.
type tileRun struct {
	block, j, k int
}

// NewOneD creates the top-down 1-d tiling for a domain of size 2^n with
// block size 2^b coefficients.
func NewOneD(n, b int) *OneD { return newOneD(n, b, false) }

// newOneD is NewOneD, numbered in growth order when growth is set.
func newOneD(n, b int, growth bool) *OneD {
	if n < 0 || b < 1 {
		panic(fmt.Sprintf("tile: NewOneD(%d, %d)", n, b))
	}
	h0 := n % b
	if h0 == 0 {
		h0 = bitutil.Min(b, n)
	}
	t := &OneD{n: n, b: b, h0: h0, numBlocks: 1, runs: []tileRun{{}}}
	if n == 0 {
		return t // one tile holding only the average
	}
	bands := (n + b - 1) / b
	rootLevel := func(q int) int { return bitutil.Min((q+1)*b, n) }
	t.levels = make([]oneDLevel, n)
	for depth := range t.levels {
		l := n - depth // level from the leaves
		q := (l - 1) / b
		jr := rootLevel(q)
		t.levels[depth] = oneDLevel{row: q * (n + 1), shift: uint(jr - l), first: 1 << uint(n-jr)}
	}
	t.base = make([]int, bands*(n+1))
	t.runs = t.runs[:0]
	next := 0
	if growth {
		// add numbers the tiles of band q whose root translations have bit
		// length L: the k = 0 tile for L = 0, else 2^(L-1) of them.
		add := func(q, L int) {
			k0, count := 0, 1
			if L > 0 {
				k0, count = 1<<uint(L-1), 1<<uint(L-1)
			}
			t.base[q*(n+1)+L] = next - k0
			t.runs = append(t.runs, tileRun{block: next, j: rootLevel(q), k: k0})
			next += count
		}
		// The tiles that first exist at m levels: each full band's
		// translations of bit length m-(q+1)b, and a new top band whenever
		// the old one fills up.
		add(0, 0)
		for m := 2; m <= n; m++ {
			for q := 0; (q+1)*b < m; q++ {
				add(q, m-(q+1)*b)
			}
			if (m-1)%b == 0 {
				add((m-1)/b, 0)
			}
		}
	} else {
		for q := bands - 1; q >= 0; q-- {
			jr := rootLevel(q)
			for L := 0; L <= n-jr; L++ {
				t.base[q*(n+1)+L] = next
			}
			t.runs = append(t.runs, tileRun{block: next, j: jr})
			next += 1 << uint(n-jr)
		}
	}
	t.numBlocks = next
	t.top = t.base[(bands-1)*(n+1)]
	return t
}

// Levels returns n.
func (t *OneD) Levels() int { return t.n }

// BlockSize returns 2^b.
func (t *OneD) BlockSize() int { return 1 << uint(t.b) }

// NumBlocks returns the number of tiles covering the tree (1 for the
// degenerate n = 0 domain, which holds only the average).
func (t *OneD) NumBlocks() int { return t.numBlocks }

// Locate1D maps a flat transform index to (block, slot). Index 0 (the
// overall average) maps to slot 0 of the top tile.
func (t *OneD) Locate1D(idx int) (block, slot int) {
	if idx < 0 || idx >= 1<<uint(t.n) {
		panic(fmt.Sprintf("tile: Locate1D(%d) out of range for n=%d", idx, t.n))
	}
	if idx == 0 {
		return t.top, 0
	}
	lv := &t.levels[bits.Len(uint(idx))-1]
	root := idx >> lv.shift // flat index of the tile's root node
	k := root - lv.first
	return t.base[lv.row+bits.Len(uint(k))] + k, idx - (root-1)<<lv.shift
}

// Locate implements Tiling for 1-element coordinate slices.
func (t *OneD) Locate(coords []int) (block, slot int) {
	if len(coords) != 1 {
		panic(fmt.Sprintf("tile: OneD.Locate with %d coords", len(coords)))
	}
	return t.Locate1D(coords[0])
}

// RootOf returns the error-tree level j and translation k of the root
// detail of a tile, so that slot 0 of the tile holds the scaling
// coefficient u[j,k]. For the top tile it returns (n, 0).
func (t *OneD) RootOf(block int) (j, k int) {
	if block < 0 || block >= t.numBlocks {
		panic(fmt.Sprintf("tile: RootOf(%d) out of range", block))
	}
	i := sort.Search(len(t.runs), func(i int) bool { return t.runs[i].block > block }) - 1
	r := t.runs[i]
	return r.j, r.k + block - r.block
}

// TileHeight returns the subtree height of the given block (h0 for the top
// band, b otherwise), i.e. how many detail levels it spans.
func (t *OneD) TileHeight(block int) int {
	if t.n == 0 {
		return 0
	}
	if block == t.top {
		return t.h0
	}
	return t.b
}

// Sequential is the ablation baseline: it ignores tree structure and packs
// coefficients into blocks by flat row-major offset.
type Sequential struct {
	shape     []int
	blockSize int
}

// NewSequential creates a sequential tiling of an arbitrary-shape transform.
func NewSequential(shape []int, blockSize int) *Sequential {
	if blockSize < 1 {
		panic(fmt.Sprintf("tile: NewSequential block size %d", blockSize))
	}
	return &Sequential{shape: append([]int(nil), shape...), blockSize: blockSize}
}

// BlockSize returns the configured block size.
func (s *Sequential) BlockSize() int { return s.blockSize }

// Shape returns the transform shape the tiling covers.
func (s *Sequential) Shape() []int { return append([]int(nil), s.shape...) }

// NumBlocks returns ceil(size / blockSize).
func (s *Sequential) NumBlocks() int {
	size := 1
	for _, e := range s.shape {
		size *= e
	}
	return bitutil.CeilDiv(size, s.blockSize)
}

// Locate maps coordinates by flat row-major offset.
func (s *Sequential) Locate(coords []int) (block, slot int) {
	if len(coords) != len(s.shape) {
		panic(fmt.Sprintf("tile: Sequential.Locate coords %v for shape %v", coords, s.shape))
	}
	off := 0
	for i, c := range coords {
		if c < 0 || c >= s.shape[i] {
			panic(fmt.Sprintf("tile: Sequential.Locate coords %v out of %v", coords, s.shape))
		}
		off = off*s.shape[i] + c
	}
	return off / s.blockSize, off % s.blockSize
}

// TileIndices returns the flat transform indices of the detail coefficients
// stored in a 1-d tile (the inverse of Locate1D, excluding the scaling
// slot). For the top tile of a non-degenerate domain the list also includes
// index 0, which is a real coefficient there.
func (t *OneD) TileIndices(block int) []int {
	if t.n == 0 {
		return []int{0}
	}
	j, k := t.RootOf(block)
	root := 1<<uint(t.n-j) + k
	height := t.TileHeight(block)
	var out []int
	if block == t.top {
		out = append(out, 0)
	}
	lo, hi := root, root
	for lvl := 0; lvl < height; lvl++ {
		for idx := lo; idx <= hi && idx < 1<<uint(t.n); idx++ {
			out = append(out, idx)
		}
		lo, hi = 2*lo, 2*hi+1
	}
	return out
}

// AffectedTiles returns the number of distinct blocks touched by a set of
// coefficient coordinates, the quantity Table 1 bounds for SHIFT and SPLIT.
func AffectedTiles(t Tiling, each func(visit func(coords []int))) int {
	seen := make(map[int]struct{})
	each(func(coords []int) {
		block, _ := t.Locate(coords)
		seen[block] = struct{}{}
	})
	return len(seen)
}

// TheoreticalShiftTilesOneD returns ceil(M/B), the §4.2 bound on tiles
// affected by a 1-d SHIFT of a block of size M with tile size B.
func TheoreticalShiftTilesOneD(m, b int) int {
	return bitutil.CeilDiv(1<<uint(m), 1<<uint(b))
}

// TheoreticalSplitTilesOneD returns ceil(log(N/M)/log B)-ish: the number of
// tiles met by a root path of n-m levels when tiles span b levels.
func TheoreticalSplitTilesOneD(n, m, b int) int {
	return bitutil.CeilDiv(n-m, b)
}
