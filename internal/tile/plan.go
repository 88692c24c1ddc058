package tile

import (
	"slices"

	"github.com/shiftsplit/shiftsplit/internal/core"
	"github.com/shiftsplit/shiftsplit/internal/haar"
)

// Plan is a standard-form operation planned per dimension. A standard
// block is the cross product of one 1-d tile per dimension (§3.2), and
// every standard-form operation reads or writes the cross product of one
// coefficient list per dimension, so the blocks it touches are the cross
// product of the lists' tiles. A Plan holds each dimension's list located
// in that dimension's OneD tiling, stable-sorted by tile, and its walk
// visits each of those blocks once: per block, the run of each
// dimension's entries in the block's tile along it names the block's
// share of the cross product, which each consumer folds its own way.
//
// Every list the paper defines has one constructor, which appends the next
// dimension: RangeSum (Lemma 2; the range of one cell gives its root
// path), LeafPath (a point from its leaf tile's scaling slot), Union (the
// dyadic pieces of an extraction), Embed (the SPLIT targets and SHIFT
// details of a merged chunk) and ScalingPath (a tile root's scaling path);
// Stay holds a dimension on one tile. Under a tiling other than Standard
// there is no per-dimension tile: every entry is its own run, and the walk
// locates each coefficient of the cross product whole.
//
// The zero value is ready. Reset starts the next plan and keeps the
// memory, so a plan held in a pooled arena allocates nothing.
type Plan struct {
	tiling  Tiling
	std     *Standard // nil under other tilings
	entries []PlanEntry
	axes    []planAxis
	started bool

	coefs []haar.Coef // RangeSum's list
	// Other tilings: the coefficient the walk stands on, located once.
	coords      []int
	block, slot int
	located     bool

	pick []PlanEntry // EachCoef's coefficient, one entry per dimension
	at   []int       // EachCoef's position in each run
}

// PlanEntry is one coefficient of a dimension's list: its index in that
// dimension's transform (0 for LeafPath's scaling slot), the 1-d tile and
// slot it sits in, its weight, and Src, the source tag by which a consumer
// finds its own data: the entry's position in the list, or under Embed
// the chunk coefficient feeding it. Under a tiling other than Standard,
// Tile is the index and Slot is 0.
type PlanEntry struct {
	Index, Tile, Slot, Src int
	W                      float64
}

// planAxis is one dimension of a plan: entries[lo:hi], and
// entries[glo:ghi], the run in the tile the walk stands on.
type planAxis struct {
	lo, hi   int
	glo, ghi int
	stride   int // block-id step per tile along this dimension
}

// Reset starts a plan over tiling t with no dimensions.
func (p *Plan) Reset(t Tiling) {
	p.tiling = t
	p.std, _ = t.(*Standard)
	p.entries, p.axes = p.entries[:0], p.axes[:0]
	p.started, p.located = false, false
}

// oneD returns the 1-d tiling of the dimension being appended (nil under
// other tilings).
func (p *Plan) oneD() *OneD {
	if p.std == nil {
		return nil
	}
	return p.std.Dim(len(p.axes))
}

// push appends coefficient idx of weight w and source tag src to the
// dimension being appended, located by od.
func (p *Plan) push(od *OneD, src, idx int, w float64) {
	e := PlanEntry{Index: idx, Tile: idx, Src: src, W: w}
	if od != nil {
		e.Tile, e.Slot = od.Locate1D(idx)
	}
	p.entries = append(p.entries, e)
}

// close ends the dimension whose entries start at lo, sorting them by tile
// first when sorted is set (stable, so a tile's run keeps the list's order
// and a fold over it adds in the same order on every call).
func (p *Plan) close(lo int, sorted bool) {
	if sorted {
		slices.SortStableFunc(p.entries[lo:], func(x, y PlanEntry) int { return x.Tile - y.Tile })
	}
	a := planAxis{lo: lo, hi: len(p.entries)}
	if p.std != nil {
		a.stride = p.std.Stride(len(p.axes))
	}
	a.glo, a.ghi = a.lo, p.runEnd(a.lo, a.hi)
	p.axes = append(p.axes, a)
	p.located = false
}

// RangeSum appends Lemma 2's list of [l, r] in a dimension of 2^n points:
// index 0 weighted by the extent, then the details whose support the
// range cuts, weighted by their D. The range of one cell is its root path,
// the weights its signs.
func (p *Plan) RangeSum(n, l, r int) {
	od, lo := p.oneD(), len(p.entries)
	p.coefs = haar.AppendRangeSumCoefs(p.coefs[:0], n, l, r)
	for i, c := range p.coefs {
		p.push(od, i, c.Index, c.Weight)
	}
	p.close(lo, true)
}

// LeafPath appends cell x's path from its leaf tile, the tile holding the
// level-1 detail over it: the tile's scaling slot, then the in-tile
// details from the tile's root down, weighted by x's side of each. It
// needs a Standard tiling whose scaling slots are valid.
func (p *Plan) LeafPath(x int) {
	od, lo := p.oneD(), len(p.entries)
	leaf := od.top // a one-cell dimension has only the top tile
	if od.n > 0 {
		leaf, _ = od.Locate1D(haar.Index(od.n, 1, x/2))
	}
	p.entries = append(p.entries, PlanEntry{Tile: leaf, W: 1})
	if od.n > 0 {
		jr, _ := od.RootOf(leaf)
		for level := jr; level >= 1; level-- {
			w := 1.0
			if x>>uint(level-1)&1 == 1 {
				w = -1
			}
			p.push(od, len(p.entries)-lo, haar.Index(od.n, level, x>>uint(level)), w)
		}
	}
	p.close(lo, false)
}

// Union appends an extraction's list: idx, the ascending indices of the
// union of the dimension's dyadic pieces' lists (a summed-out dimension's
// single index 0), each weighted 1.
func (p *Plan) Union(idx []int) {
	od, lo := p.oneD(), len(p.entries)
	for i, x := range idx {
		p.push(od, i, x, 1)
	}
	p.close(lo, true)
}

// Embed appends the targets of a chunk of 2^m points at position k (in
// chunk units) merged into a dimension of 2^n points: the SPLIT targets of
// the chunk average (Src 0, core.SplitTargets' weights), then the SHIFT
// target of each detail i (Src i, weight 1): Src is the index in the
// chunk's transform that feeds the target.
func (p *Plan) Embed(n, m, k int) {
	od, lo := p.oneD(), len(p.entries)
	for _, tt := range core.SplitTargets(n, m, k) {
		p.push(od, 0, tt.Index, tt.Weight)
	}
	for i := 1; i < 1<<uint(m); i++ {
		p.push(od, i, core.ShiftIndex(n, m, k, i), 1)
	}
	p.close(lo, true)
}

// ScalingPath appends the core.ScalingPath1D of the root of 1-d tile
// block, a tile other than the top one: the overall average, then the ±1
// weighted details from the root level down to the level above the tile's
// root. The path climbs through the tile's ancestors, top first, so each
// one's entries are already a run and keep the path's order. It needs a
// Standard tiling.
func (p *Plan) ScalingPath(block int) {
	od, lo := p.oneD(), len(p.entries)
	j, k := od.RootOf(block)
	p.push(od, 0, 0, 1)
	for l := od.n; l > j; l-- {
		w := 1.0
		if k>>uint(l-j-1)&1 == 1 {
			w = -1
		}
		p.push(od, len(p.entries)-lo, 1<<uint(od.n-l)+k>>uint(l-j), w)
	}
	p.close(lo, false)
}

// Stay appends a dimension the walk keeps on 1-d tile block: one entry, its
// slot 0, weight 1. It needs a Standard tiling.
func (p *Plan) Stay(block int) {
	lo := len(p.entries)
	p.entries = append(p.entries, PlanEntry{Tile: block, W: 1})
	p.close(lo, false)
}

// runEnd returns the end of the run of entries sharing entries[from]'s
// tile; under other tilings every entry is its own run.
func (p *Plan) runEnd(from, hi int) int {
	i := from + 1
	for p.std != nil && i < hi && p.entries[i].Tile == p.entries[from].Tile {
		i++
	}
	return i
}

// Dims returns the number of dimensions appended.
func (p *Plan) Dims() int { return len(p.axes) }

// Len returns the length of dimension t's list.
func (p *Plan) Len(t int) int { return p.axes[t].hi - p.axes[t].lo }

// Edge returns the slots per dimension of a standard block, or 0 under
// other tilings, whose walk visits one coefficient per block visit.
func (p *Plan) Edge() int {
	if p.std == nil {
		return 0
	}
	return p.std.Dim(0).BlockSize()
}

// Next moves the walk to the next block of the plan: the first after the
// plan is built or a walk ends, then the next combination of the
// dimensions' tile runs, last dimension fastest (ascending block ids under
// NewStandard's strides). It reports false after the last, the walk back
// on the first, so the next Next starts a second pass.
func (p *Plan) Next() bool {
	p.located = false
	if !p.started {
		p.started = true
		return len(p.axes) > 0
	}
	for t := len(p.axes) - 1; t >= 0; t-- {
		a := &p.axes[t]
		if a.ghi < a.hi {
			a.glo, a.ghi = a.ghi, p.runEnd(a.ghi, a.hi)
			return true
		}
		a.glo, a.ghi = a.lo, p.runEnd(a.lo, a.hi)
	}
	p.started = false
	return false
}

// Block returns the block the walk stands on (a built plan stands on its
// first) and, under a tiling other than Standard, the slot of its one
// coefficient.
func (p *Plan) Block() (block, slot int) {
	if p.std == nil {
		if !p.located {
			p.coords = resized(p.coords, len(p.axes))
			for t, a := range p.axes {
				p.coords[t] = p.entries[a.glo].Index
			}
			p.block, p.slot = p.tiling.Locate(p.coords)
			p.located = true
		}
		return p.block, p.slot
	}
	for _, a := range p.axes {
		block += p.entries[a.glo].Tile * a.stride
	}
	return block, 0
}

// Run returns dimension t's entries in the block the walk stands on.
func (p *Plan) Run(t int) []PlanEntry {
	a := &p.axes[t]
	return p.entries[a.glo:a.ghi]
}

// EachCoef calls fn for every coefficient of the block the walk stands on,
// the cross product of the dimensions' runs, last dimension fastest, with
// its slot in the block and its entry along each dimension (pick is the
// plan's own and is overwritten by the next call).
func (p *Plan) EachCoef(fn func(slot int, pick []PlanEntry)) {
	d := len(p.axes)
	p.EachRow(func(slot int, pick, run []PlanEntry) {
		for _, e := range run {
			pick[d-1] = e
			fn(slot+e.Slot, pick)
		}
	})
}

// EachRow is EachCoef a row at a time: it calls fn once per combination of
// the entries of every dimension but the last, in EachCoef's order, with
// those entries in pick[:d-1], run the last dimension's entries in the
// block, and slot the slot to which a run entry's Slot adds. A consumer
// whose inner loop runs over run pays one call per row instead of one per
// coefficient.
func (p *Plan) EachRow(fn func(slot int, pick, run []PlanEntry)) {
	d, edge := len(p.axes), p.Edge()
	p.pick, p.at = resized(p.pick, d), resized(p.at, d)
	clear(p.at)
	for {
		slot := 0
		for t, a := range p.axes[:d-1] {
			e := p.entries[a.glo+p.at[t]]
			slot = slot*edge + e.Slot
			p.pick[t] = e
		}
		slot *= edge
		if edge == 0 {
			_, slot = p.Block() // and every Slot is 0
		}
		fn(slot, p.pick, p.Run(d-1))
		t := d - 2
		for ; t >= 0; t-- {
			if p.at[t]++; p.axes[t].glo+p.at[t] < p.axes[t].ghi {
				break
			}
			p.at[t] = 0
		}
		if t < 0 {
			return
		}
	}
}
