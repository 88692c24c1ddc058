package tile

import (
	"fmt"

	"github.com/shiftsplit/shiftsplit/internal/bitutil"
)

// Standard tiles a standard-form multidimensional transform as the cross
// product of per-dimension OneD tilings (§3.2): a block holds the B^d
// generalized coefficients formed by crossing d single-dimensional tile
// bases. A block id combines the per-dimension tile ids in mixed radix,
// block = sum over t of tile_t * Stride(t); slots always combine with
// dimension 0 outermost.
type Standard struct {
	dims   []*OneD
	b      int
	domain []int
	growth bool
	outer  int   // the dimension with the largest stride
	stride []int // stride[t]: block-id step of one tile along dimension t
}

// NewStandard creates the standard-form tiling for a transform whose
// dimension t has size 2^n[t], with per-dimension block edge 2^b (so blocks
// hold 2^(b*d) slots). Tiles are numbered top-down and dimension 0 is the
// outermost radix.
func NewStandard(n []int, b int) *Standard { return newStandard(n, b, false, 0) }

// NewGrowthStandard is NewStandard for a domain that grows: every dimension
// numbers its tiles in growth order and dimension outer is the outermost
// radix, the others following in order. Growing dimension outer by a level
// (Grown) then keeps every block id, and only the blocks of the top band
// along it change contents.
func NewGrowthStandard(n []int, b, outer int) *Standard {
	if outer < 0 || outer >= len(n) {
		panic(fmt.Sprintf("tile: NewGrowthStandard outer dimension %d for %d dims", outer, len(n)))
	}
	return newStandard(n, b, true, outer)
}

func newStandard(n []int, b int, growth bool, outer int) *Standard {
	if len(n) == 0 {
		panic("tile: NewStandard with no dimensions")
	}
	s := &Standard{dims: make([]*OneD, len(n)), b: b, domain: make([]int, len(n)), growth: growth, outer: outer, stride: make([]int, len(n))}
	for i, ni := range n {
		s.dims[i] = newOneD(ni, b, growth)
		s.domain[i] = 1 << uint(ni)
	}
	step := 1
	for t := len(n) - 1; t >= 0; t-- {
		if t != outer {
			s.stride[t] = step
			step *= s.dims[t].NumBlocks()
		}
	}
	s.stride[outer] = step
	return s
}

// Grown returns the tiling of the same numbering for the domain doubled
// along dim.
func (s *Standard) Grown(dim int) *Standard {
	n := make([]int, len(s.dims))
	for t, d := range s.dims {
		n[t] = d.Levels()
	}
	n[dim]++
	return newStandard(n, s.b, s.growth, s.outer)
}

// Domain returns the extents of the tiled domain. The slice is the
// tiling's own (the query kernels validate against it on every call
// without copying) and must not be modified.
func (s *Standard) Domain() []int { return s.domain }

// Dims returns the dimensionality.
func (s *Standard) Dims() int { return len(s.dims) }

// Dim returns the per-dimension tiling for dimension t.
func (s *Standard) Dim(t int) *OneD { return s.dims[t] }

// Stride returns how far apart the block ids of two tiles adjacent along
// dimension t lie.
func (s *Standard) Stride(t int) int { return s.stride[t] }

// BlockSize returns B^d.
func (s *Standard) BlockSize() int {
	return bitutil.IntPow(1<<uint(s.b), len(s.dims))
}

// NumBlocks returns the product of per-dimension tile counts.
func (s *Standard) NumBlocks() int {
	return s.stride[s.outer] * s.dims[s.outer].NumBlocks()
}

// Locate maps transform coordinates to (block, slot) by combining the
// per-dimension locations in mixed radix.
func (s *Standard) Locate(coords []int) (block, slot int) {
	if len(coords) != len(s.dims) {
		panic(fmt.Sprintf("tile: Standard.Locate with %d coords for %d dims", len(coords), len(s.dims)))
	}
	for t, d := range s.dims {
		bt, st := d.Locate1D(coords[t])
		block += bt * s.stride[t]
		slot = slot*d.BlockSize() + st
	}
	return block, slot
}

// NonStandard tiles a non-standard transform of a cubic d-dimensional
// domain of edge 2^n into quadtree subtrees of height b (§3.2, Figure 7).
// Each block holds (D^h - 1)/(D - 1) nodes of D-1 detail coefficients each
// (D = 2^d, h the tile height) plus the root scaling in slot 0; full-height
// tiles use exactly B^d = D^b slots.
type NonStandard struct {
	n, d, b int
	h0      int
	cumRoot []int // cumRoot[t] = number of tiles in bands < t
	domain  []int
	levels  []NonStdLevel // levels[j-1] locates the nodes of level j
}

// NewNonStandard creates the non-standard tiling.
func NewNonStandard(n, d, b int) *NonStandard {
	if n < 0 || d < 1 || b < 1 {
		panic(fmt.Sprintf("tile: NewNonStandard(%d, %d, %d)", n, d, b))
	}
	h0 := n % b
	if h0 == 0 {
		h0 = bitutil.Min(b, n)
	}
	t := &NonStandard{n: n, d: d, b: b, h0: h0, domain: make([]int, d)}
	for i := range t.domain {
		t.domain[i] = 1 << uint(n)
	}
	cum := []int{0}
	for s := 0; s < n; {
		cum = append(cum, cum[len(cum)-1]+bitutil.IntPow(1<<uint(s), d))
		if s == 0 {
			s = h0
		} else {
			s += b
		}
	}
	t.cumRoot = cum
	t.levels = make([]NonStdLevel, n)
	for j := 1; j <= n; j++ {
		t.levels[j-1] = t.level(j)
	}
	return t
}

// Domain returns the extents of the tiled cube, d times 2^n. The slice is
// the tiling's own and must not be modified.
func (t *NonStandard) Domain() []int { return t.domain }

// BlockSize returns B^d = 2^(b*d).
func (t *NonStandard) BlockSize() int {
	return bitutil.IntPow(1<<uint(t.b), t.d)
}

// NumBlocks returns the number of quadtree subtree tiles.
func (t *NonStandard) NumBlocks() int {
	if t.n == 0 {
		return 1
	}
	return t.cumRoot[len(t.cumRoot)-1]
}

func (t *NonStandard) bandStart(band int) int {
	if band == 0 {
		return 0
	}
	return t.h0 + (band-1)*t.b
}

func (t *NonStandard) bandOf(depth int) int {
	if depth < t.h0 {
		return 0
	}
	return 1 + (depth-t.h0)/t.b
}

// NonStdLevel holds what is constant across the nodes of one quadtree level
// of a NonStandard tiling, so a caller walking many cells of a level
// derives each (block, slot) with a few shifts (Push, At) instead of one
// Locate per coefficient.
type NonStdLevel struct {
	details   int  // detail coefficients per node: 2^d - 1
	blockBase int  // first tile of the level's band
	rootBits  uint // bits per dimension of a tile root's position in the band
	localBits uint // depth of the level's nodes below their tile root
	nodeBase  int  // nodes above this level inside a tile: (D^localBits-1)/(D-1)
}

// Level returns the constants of the nodes at tree depth n-j, whose cells
// have edge 2^j (1 <= j <= n). They are tabulated once per tiling: Locate
// looks one up per coefficient.
func (t *NonStandard) Level(j int) NonStdLevel {
	if j < 1 || j > t.n {
		panic(fmt.Sprintf("tile: NonStandard.Level(%d) out of [1,%d]", j, t.n))
	}
	return t.levels[j-1]
}

func (t *NonStandard) level(j int) NonStdLevel {
	depth := t.n - j
	band := t.bandOf(depth)
	start := t.bandStart(band)
	delta := depth - start
	details := 1<<uint(t.d) - 1
	return NonStdLevel{
		details:   details,
		blockBase: t.cumRoot[band],
		rootBits:  uint(start),
		localBits: uint(delta),
		nodeBase:  (bitutil.IntPow(details+1, delta) - 1) / details,
	}
}

// Push folds the next dimension's cell coordinate into the tile-root and
// in-tile indices of a node, which concatenate the coordinates' high and
// low bits; both start at 0. A caller stepping one coordinate while the
// others stand keeps the pair of the standing prefix.
func (l NonStdLevel) Push(root, local, p int) (int, int) {
	hi := p >> l.localBits
	return root<<l.rootBits | hi, local<<l.localBits | (p - hi<<l.localBits)
}

// At maps the indices of a whole cell position to the block holding its
// node and the slot of the node's first detail; the detail of subband mask
// (bit i set: differencing along dimension i) sits at slot + mask - 1.
func (l NonStdLevel) At(root, local int) (block, slot int) {
	return l.blockBase + root, 1 + (l.nodeBase+local)*l.details
}

// TileRoot reports whether the level's nodes are the roots of their tiles.
// Every other level's nodes sit in the tile of their ancestor at the
// nearest such level above.
func (l NonStdLevel) TileRoot() bool { return l.localBits == 0 }

// depth returns how many levels the level's nodes sit below their tile
// root: a tile holds the 2^depth cells per dimension under its root cell.
func (l NonStdLevel) depth() int { return int(l.localBits) }

// origin returns the slot of the first detail of the level's node at a
// tile's lowest corner cell. The other nodes of the level in that tile sit
// at origin plus, per dimension t of d, the cell's offset from that corner
// times details << (localBits·(d-1-t)), the slot step between cells
// adjacent along t.
func (l NonStdLevel) origin() int { return 1 + l.nodeBase*l.details }

// Locate maps Mallat-layout coordinates of the cubic transform to
// (block, slot). The overall average at the origin maps to slot 0 of the
// top tile. The decode of wavelet.NonStdLevel is inlined here without its
// subband/pos slices: Locate is the innermost call of the write-once
// engines (once per coefficient via OnceWriter.Set and BlockCapacities),
// so it must not allocate.
func (t *NonStandard) Locate(coords []int) (block, slot int) {
	if len(coords) != t.d {
		panic(fmt.Sprintf("tile: NonStandard.Locate with %d coords for d=%d", len(coords), t.d))
	}
	max := 0
	for _, c := range coords {
		if c > max {
			max = c
		}
	}
	if max == 0 { // the overall average
		return 0, 0
	}
	// The node depth is fixed by the largest coordinate: base = 2^depth is
	// the largest power of two <= max (level j = n - depth).
	depth := bitutil.FloorLog2(max)
	base := 1 << uint(depth)
	lvl := &t.levels[t.n-depth-1]
	root, local, mask := 0, 0, 0
	for i, c := range coords {
		if c >= base {
			mask |= 1 << uint(i)
			c -= base
		}
		if c >= base {
			panic(fmt.Sprintf("wavelet: coords %v are not a valid non-standard position", coords))
		}
		root, local = lvl.Push(root, local, c)
	}
	block, slot = lvl.At(root, local)
	return block, slot + mask - 1
}

// RootOf returns the level and cell position of the tile's root node, whose
// scaling coefficient occupies slot 0. For the top tile it returns the root
// node (level n, origin).
func (t *NonStandard) RootOf(block int) (level int, pos []int) {
	pos = make([]int, t.d)
	return t.rootInto(block, pos), pos
}

// rootInto is RootOf writing the position into pos (length d).
func (t *NonStandard) rootInto(block int, pos []int) (level int) {
	if block < 0 || block >= t.NumBlocks() {
		panic(fmt.Sprintf("tile: NonStandard.RootOf(%d)", block))
	}
	if t.n == 0 {
		clear(pos)
		return 0
	}
	band := 0
	for band+1 < len(t.cumRoot) && t.cumRoot[band+1] <= block {
		band++
	}
	start := t.bandStart(band)
	rootIdx := block - t.cumRoot[band]
	for i := t.d - 1; i >= 0; i-- {
		pos[i] = rootIdx & (1<<uint(start) - 1)
		rootIdx >>= uint(start)
	}
	return t.n - start
}

// TileHeight returns how many quadtree levels the block spans.
func (t *NonStandard) TileHeight(block int) int {
	if t.n == 0 {
		return 0
	}
	if block < t.cumRoot[1] {
		return t.h0
	}
	return t.b
}
