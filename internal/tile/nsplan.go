package tile

import (
	"math/bits"
	"slices"

	"github.com/shiftsplit/shiftsplit/internal/haar"
)

// NonStdPlan is a non-standard-form operation planned level by level. A
// non-standard tile is a quadtree subtree (§3.2, Figure 7), and every
// non-standard operation reads or writes the nodes of one box against the
// levels. A range sum takes the cells the box cuts, with Lemma 2's weights
// per dimension; a point's root path is the one-cell box. A dyadic cube
// takes its path above the cube, one node per level, each weighed by the
// ±1 sign of the cube's side of it: the SPLIT targets, extraction's
// inverse SPLIT, a tile root's scaling path and, cut at the leaf tile, a
// point's leaf path. It takes the subtree below it whole: the SHIFT
// targets and extraction's inverse SHIFT, so merge and extraction are
// transposes over one coefficient set.
//
// A plan holds the box against each of its levels, and its walk visits
// every tile holding one of its nodes once, in ascending block order: the
// bands top down, and in each band the tiles whose root cell the box
// reaches (RangeSum: cuts), lexicographically. Standing on a tile, Box
// gives each level of the tile's band as a box of cells inside the tile,
// which each consumer folds its own way; FoldPath and Runs are the folds
// the cube's consumers share.
//
// The zero value is ready, and a plan held in a pooled arena allocates
// nothing once its slices have grown.
type NonStdPlan struct {
	t      *NonStandard
	d, m   int      // dimensions; a cube's level (0 for a range sum)
	lo, hi int      // the levels the plan holds
	spans  []nsSpan // d per level lo..: the box against the level
	tiles  []nsTile // the walk's tiles, ascending
	pairs  int      // (tile, level) pairs of the walk
	odo    []int    // the root cell the enumeration stands on

	// The walk: tiles[i-1] is the tile it stands on.
	i   int
	cur nsTile
	box NonStdBox
	at  []int // Runs' position in the box
}

// nsTile is one tile a plan visits: its block, its root level j and rel
// (see Rel).
type nsTile struct{ block, j, rel int }

// NonStdBox is one level of a plan inside one tile: per dimension, the
// cells the box covers whole and the cut end cells, each cell's nodes
// holding 2^d - 1 details in subband order from its slot on.
type NonStdBox struct {
	// Origin is the slot of the first detail of the tile's lowest cell.
	Origin int
	Edges  []NonStdEdge
}

// NonStdEdge is one dimension of a NonStdBox: the covered cells From..To,
// counted from the tile's lowest cell (none when From > To), the slot step
// between neighbouring cells, and the cut end cells the tile holds,
// Ends[:N], low end first; cell is cell From counted from the lowest cell
// the box reaches at the level.
type NonStdEdge struct {
	From, To, Step, N int
	Ends              [2]NonStdEnd
	cell              int
}

// NonStdEnd is a cut end cell inside a tile: its slot offset from the
// tile's lowest cell and the box's haar.Overlap (T, D) with it.
type NonStdEnd struct {
	Off  int
	T, D float64
}

// nsSpan is one dimension of the box against one level: the cells lo..hi
// it reaches, the cells in..inEnd it covers whole, and its Overlap (T, D)
// with the two end cells. An end cell is cut — the box neither covers nor
// misses it — iff it lies outside in..inEnd.
type nsSpan struct {
	lo, hi, in, inEnd int
	tLo, dLo          float64
	tHi, dHi          float64
}

// set makes sp the box [s, e) against level j.
func (sp *nsSpan) set(s, e, j int) {
	sp.lo, sp.hi = s>>uint(j), (e-1)>>uint(j)
	tLo, dLo := haar.Overlap(s, e, j, sp.lo)
	sp.tLo, sp.dLo, sp.tHi, sp.dHi = float64(tLo), float64(dLo), 0, 0
	sp.in, sp.inEnd = sp.lo, sp.hi
	if tLo < 1<<uint(j) {
		sp.in++
	}
	if sp.hi != sp.lo {
		tHi, dHi := haar.Overlap(s, e, j, sp.hi)
		sp.tHi, sp.dHi = float64(tHi), float64(dHi)
		if tHi < 1<<uint(j) {
			sp.inEnd--
		}
	}
}

// cut reports whether the box cuts cell c of the span.
func (sp *nsSpan) cut(c int) bool {
	return c == sp.lo && sp.in > sp.lo || c == sp.hi && sp.inEnd < sp.hi
}

// ends returns which ends of the span cell c is: bit 0 the low, bit 1 the
// high.
func (sp *nsSpan) ends(c int) int {
	r := 0
	if c == sp.lo {
		r = 1
	}
	if c == sp.hi {
		r |= 2
	}
	return r
}

// RangeSum plans the box [start, start+extent) over every level: the walk
// visits the tiles whose root cell the box cuts. Those hold every cell the
// box cuts (a cut cell's ancestors are cut too, and a node shares the tile
// of its nearest tile-root ancestor), and every other cell weighs zero in
// the box's sum. A cut cell's tile is visited even where its weights
// happen to cancel, so the tiles are a function of the box and the tiling.
func (p *NonStdPlan) RangeSum(t *NonStandard, start, extent []int) {
	p.plan(t, start, extent, 0, 1, t.n, true)
}

// Cube plans the cube of edge 2^m at position pos (in cube units) over
// levels lo..hi: above m its path, at m and below its subtree. The walk
// visits every tile holding one of those nodes.
func (p *NonStdPlan) Cube(t *NonStandard, m int, pos []int, lo, hi int) {
	p.plan(t, pos, nil, m, lo, hi, false)
}

// Leaf plans a point's leaf path: the cube of its one cell over the levels
// of its leaf tile, the tile of the level-1 node over it. The walk visits
// that tile alone (none in a one-cell domain, whose only tile is block 0).
func (p *NonStdPlan) Leaf(t *NonStandard, point []int) {
	hi := 0
	if t.n > 0 {
		hi = 1 + t.levels[0].depth()
	}
	p.Cube(t, 0, point, 1, hi)
}

// plan plans the box [start, start+extent) over levels lo..hi, or with
// extent nil the cube of edge 2^m at position start in cube units.
func (p *NonStdPlan) plan(t *NonStandard, start, extent []int, m, lo, hi int, cutOnly bool) {
	p.t, p.d, p.m, p.lo, p.hi, p.i = t, len(start), m, lo, hi, 0
	top := hi // the root level of the band holding level hi
	for top >= lo && !t.levels[top-1].TileRoot() {
		top++
	}
	// Sized for any plan of the tiling, so a pooled plan grows it once.
	p.spans = slices.Grow(p.spans[:0], t.n*p.d)[:max(0, top-lo+1)*p.d]
	for j, k := lo, 0; j <= top; j++ {
		for i, s := range start {
			if extent == nil && j > m { // a cube's path: one cut cell
				sp, lo, w := &p.spans[k], s>>uint(j-m), float64(int(1)<<uint(m))
				sp.lo, sp.hi, sp.in, sp.inEnd = lo, lo, lo+1, lo
				sp.tLo, sp.dLo, sp.tHi, sp.dHi = w, w*float64(1-2*(s>>uint(j-m-1)&1)), 0, 0
			} else if extent == nil {
				p.spans[k].set(s<<uint(m), (s+1)<<uint(m), j)
			} else {
				p.spans[k].set(s, s+extent[i], j)
			}
			k++
		}
	}
	// The tiles are counted first, so a plan fresh from a pool grows its
	// list once: a band's cut root cells are those it reaches less those
	// it covers along every dimension.
	tiles := 0
	p.pairs = 0
	for j := top; j >= lo; j = p.bandLow(j) - 1 {
		reached, covered := 1, 1
		for _, s := range p.level(j) {
			reached *= s.hi - s.lo + 1
			covered *= max(0, s.inEnd-s.in+1)
		}
		if cutOnly {
			reached -= covered
		}
		tiles += reached
		p.pairs += reached * (min(j, hi) - max(p.bandLow(j), lo) + 1)
	}
	p.tiles = slices.Grow(p.tiles[:0], tiles)
	p.odo, p.box.Edges = resized(p.odo, p.d), resized(p.box.Edges, p.d)
	for j := top; j >= lo; j = p.bandLow(j) - 1 {
		p.band(j, cutOnly)
	}
}

// bandLow returns the lowest level of the band rooted at level j.
func (p *NonStdPlan) bandLow(j int) int {
	if j == p.t.n {
		return j - p.t.h0 + 1
	}
	return j - p.t.b + 1
}

// Pairs returns how many (tile, level) pairs the walk visits.
func (p *NonStdPlan) Pairs() int { return p.pairs }

// level returns the box against level j.
func (p *NonStdPlan) level(j int) []nsSpan { return p.spans[(j-p.lo)*p.d:][:p.d] }

// band lists the tiles rooted at level j that the plan visits: their root
// cells the box reaches, or cuts when cutOnly is set. A tile's root index
// concatenates its root cell's coordinates, dimension 0 highest, so the
// cells are taken in ascending block order, lexicographically: rows along
// the last dimension, whole where the plan visits every cell or an earlier
// coordinate is a cut end cell, and only the row's own cut ends elsewhere.
func (p *NonStdPlan) band(j int, cutOnly bool) {
	lvl, sp, last := &p.t.levels[j-1], p.level(j), p.d-1
	for t := range p.odo {
		p.odo[t] = sp[t].lo
	}
	s := &sp[last]
	for {
		whole, root, rel := !cutOnly, 0, 0
		for t, c := range p.odo[:last] {
			whole = whole || sp[t].cut(c)
			root, _ = lvl.Push(root, 0, c)
			rel |= sp[t].ends(c) << uint(2*t)
		}
		row, _ := lvl.At(root<<lvl.rootBits, 0)
		for c := s.lo; c <= s.hi; c++ {
			if !whole && !s.cut(c) {
				c = s.inEnd // skip the covered cells to the hi end
				continue
			}
			p.tiles = append(p.tiles, nsTile{block: row + c, j: j, rel: rel | s.ends(c)<<uint(2*last)})
		}
		t := last - 1
		for ; t >= 0; t-- {
			if p.odo[t] < sp[t].hi {
				p.odo[t]++
				break
			}
			p.odo[t] = sp[t].lo
		}
		if t < 0 {
			return
		}
	}
}

// Next moves the walk to the plan's next tile, the first after the plan is
// built or a walk ends. It reports false after the last, the walk back
// before the first, so the next Next starts a second pass.
func (p *NonStdPlan) Next() bool {
	if p.i == len(p.tiles) {
		p.i = 0
		return false
	}
	p.cur = p.tiles[p.i]
	p.i++
	return true
}

// Block returns the block the walk stands on.
func (p *NonStdPlan) Block() int { return p.cur.block }

// Rel returns which ends of the box the root cell of the tile the walk
// stands on holds: per dimension t, bit 2t the low end, bit 2t+1 the high
// one. Under RangeSum every exported field of Box(j) is a function of j
// and Rel alone.
func (p *NonStdPlan) Rel() int { return p.cur.rel }

// Levels returns the plan's levels in the tile the walk stands on, hi down
// to low.
func (p *NonStdPlan) Levels() (hi, low int) { return min(p.cur.j, p.hi), max(p.bandLow(p.cur.j), p.lo) }

// Box returns level j of the tile the walk stands on as a box of cells
// inside the tile. It is the plan's own and overwritten by the next call.
func (p *NonStdPlan) Box(j int) *NonStdBox {
	lvl, sp, depth := &p.t.levels[j-1], p.level(j), uint(p.cur.j-j)
	top := &p.t.levels[p.cur.j-1]
	root, b, step := p.cur.block-top.blockBase, &p.box, lvl.details
	b.Origin = lvl.origin()
	for t := p.d - 1; t >= 0; t-- {
		s, e := &sp[t], &b.Edges[t]
		// The root index concatenates the root cell's coordinates,
		// dimension 0 highest: a is the tile's lowest cell.
		a := (root & (1<<top.rootBits - 1)) << depth
		z := a + 1<<depth - 1
		e.From, e.To, e.Step, e.N = max(s.in, a)-a, min(s.inEnd, z)-a, step, 0
		e.cell = a + e.From - s.lo
		if s.in > s.lo && a <= s.lo && s.lo <= z {
			e.Ends[0] = NonStdEnd{Off: (s.lo - a) * step, T: s.tLo, D: s.dLo}
			e.N = 1
		}
		if s.inEnd < s.hi && a <= s.hi && s.hi <= z {
			e.Ends[e.N] = NonStdEnd{Off: (s.hi - a) * step, T: s.tHi, D: s.dHi}
			e.N++
		}
		root >>= top.rootBits
		step <<= lvl.localBits
	}
	return b
}

// node returns the slot of the first detail of a cube's path node at
// level j > m in the tile the walk stands on, the one cell of Box(j), and
// neg, the dimensions along which the cube lies in the node's upper half.
func (p *NonStdPlan) node(j int) (slot, neg int) {
	lvl, sp, depth := &p.t.levels[j-1], p.level(j), uint(p.cur.j-j)
	top := &p.t.levels[p.cur.j-1]
	root, step := p.cur.block-top.blockBase, lvl.details
	slot = lvl.origin()
	for t := p.d - 1; t >= 0; t-- {
		slot += (sp[t].lo - (root&(1<<top.rootBits-1))<<depth) * step
		if sp[t].dLo < 0 {
			neg |= 1 << uint(t)
		}
		root >>= top.rootBits
		step <<= lvl.localBits
	}
	return slot, neg
}

// sign returns the weight of subband mask's detail on a path node: -1
// when mask differences an odd number of the dimensions in neg, else 1.
func sign(mask, neg int) float64 {
	return float64(1 - 2*(bits.OnesCount(uint(mask&neg))&1))
}

// FoldPath returns acc plus the cube's path nodes in the tile the walk
// stands on, from the highest level down: each node's details in subband
// order, read from frame and weighed by their sign.
func (p *NonStdPlan) FoldPath(acc float64, frame []float64) float64 {
	hi, low := p.Levels()
	for j := hi; j > p.m && j >= low; j-- {
		slot, neg := p.node(j)
		for mask := 1; mask < 1<<uint(p.d); mask++ {
			acc += sign(mask, neg) * frame[slot+mask-1]
		}
	}
	return acc
}

// Runs calls fn for the cube's subtree nodes at level j <= m in the tile
// the walk stands on, a run of cells along the last dimension and a
// subband at a time: the slot of the run's first coefficient, the offset
// of the same coefficient in the cube's own transform (edge 2^m, Mallat
// layout, row-major), and the run's length. A run's coefficients lie
// 2^d - 1 slots and one offset apart.
func (p *NonStdPlan) Runs(j int, fn func(slot, src, n int)) {
	b, d, m := p.Box(j), p.d, uint(p.m)
	side := 1 << uint(p.m-j) // the cube's cells per dimension at level j
	n := b.Edges[d-1].To - b.Edges[d-1].From + 1
	p.at = resized(p.at, d)
	clear(p.at)
	for {
		slot, src := b.Origin, 0
		for t, e := range b.Edges {
			slot += (e.From + p.at[t]) * e.Step
			src = src<<m + e.cell + p.at[t]
		}
		for mask := 1; mask < 1<<uint(d); mask++ {
			off := src
			for t := 0; t < d; t++ {
				if mask>>uint(t)&1 == 1 {
					off += side << (m * uint(d-1-t))
				}
			}
			fn(slot+mask-1, off, n)
		}
		t := d - 2
		for ; t >= 0; t-- {
			if p.at[t]++; b.Edges[t].From+p.at[t] <= b.Edges[t].To {
				break
			}
			p.at[t] = 0
		}
		if t < 0 {
			return
		}
	}
}
