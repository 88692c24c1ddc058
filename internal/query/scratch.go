package query

import (
	"slices"
	"sync"

	"github.com/shiftsplit/shiftsplit/internal/bitutil"
	"github.com/shiftsplit/shiftsplit/internal/haar"
	"github.com/shiftsplit/shiftsplit/internal/tile"
)

// scratch is the arena of one query: the blocks its plan asks for, the
// frames they are fetched into, and the plan's own lists. It is taken from
// the pool after validation and put back when the kernel returns; nothing
// in it may outlive that (the kernels return floats and counts only), so a
// recycled arena is never read through by an earlier query.
type scratch struct {
	tile.FetchSet

	// Standard-form plan: per dimension the query's list, located.
	plan tile.Plan

	// Non-standard plan, query after query (a batch plans every point
	// before its one fetch): per query, the box against each level and
	// the tiles whose root cell the box cuts, ascending. unit is the
	// all-ones extent of a point's box.
	unit    []int
	queries []nsQuery
	spans   []span   // d per level j = 1..n of each query
	tiles   []nsTile // each query's run from nsQuery.tiles to .end
	cell    []int    // the cell the tile enumeration stands on

	// Non-standard fold of one query: its recipes per (level, rel), valid
	// while stamped with gen, and their terms; while a recipe is built,
	// per dimension the tile's cells and the group's weight per subband.
	recipes []recipe
	gen     int
	terms   []term
	runs    []run
	edges   []edge
	weights []float64
}

// maxPooledSlab bounds the frame slab (in float64s, 8 MiB) an arena may
// carry back into the pool, so one huge PointBatch does not pin its
// high-water mark for the life of the process.
const maxPooledSlab = 1 << 20

var pool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch {
	sc := pool.Get().(*scratch)
	sc.Reset()
	sc.queries, sc.spans, sc.tiles = sc.queries[:0], sc.spans[:0], sc.tiles[:0]
	return sc
}

func putScratch(sc *scratch) {
	sc.Trim(maxPooledSlab)
	pool.Put(sc)
}

// ones returns the all-ones extent of a point's box in d dimensions.
func (sc *scratch) ones(d int) []int {
	sc.unit = resized(sc.unit, d)
	for i := range sc.unit {
		sc.unit[i] = 1
	}
	return sc.unit
}

// resized returns s with length n, reusing its backing when it is large
// enough; the contents are whatever the last query left.
func resized[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// planStandard plans the box [start, start+extent) — the cell at start
// when extent is nil — as the cross product of its per-dimension Lemma-2
// lists (tile.Plan.RangeSum).
func (sc *scratch) planStandard(tiling tile.Tiling, arrShape, start, extent []int) {
	sc.plan.Reset(tiling)
	for t, l := range start {
		r := l
		if extent != nil {
			r = l + extent[t] - 1
		}
		sc.plan.RangeSum(bitutil.Log2(arrShape[t]), l, r)
	}
}

// walkStandard visits every block of the plan once: to name it for the
// fetch, or, once fetched, to fold its weighted slots.
func (sc *scratch) walkStandard(accumulate bool) float64 {
	p, sum := &sc.plan, 0.0
	for p.Next() {
		block, _ := p.Block()
		switch {
		case !accumulate:
			sc.Want(block)
		case p.Edge() > 0:
			sum += sc.sumTile(sc.Frame(block), 0, 0)
		default:
			sum += foldFlat(p, sc.Frame(block))
		}
	}
	return sum
}

// sumTile folds one standard block: the cross product of the dimensions'
// current runs, with slot = (slot_0*B + slot_1)*B + ... and weight the
// product, summed innermost dimension first.
func (sc *scratch) sumTile(frame []float64, t, slot int) float64 {
	p, sum := &sc.plan, 0.0
	slot *= p.Edge()
	if t == p.Dims()-1 {
		for _, e := range p.Run(t) {
			sum += e.W * frame[slot+e.Slot]
		}
		return sum
	}
	for _, e := range p.Run(t) {
		sum += e.W * sc.sumTile(frame, t+1, slot+e.Slot)
	}
	return sum
}

// foldFlat sums the block the plan's walk stands on one coefficient at a
// time: weight the product of its entries' times its slot.
func foldFlat(p *tile.Plan, frame []float64) float64 {
	sum := 0.0
	p.EachCoef(func(slot int, pick []tile.PlanEntry) {
		w := 1.0
		for _, e := range pick {
			w *= e.W
		}
		sum += w * frame[slot]
	})
	return sum
}

// rangeSumStandard is the standard-form kernel behind RangeSumStandard
// (extent set) and PointViaRootPath (extent nil).
func (sc *scratch) rangeSumStandard(st *tile.Store, arrShape, start, extent []int) (float64, int, error) {
	sc.planStandard(st.Tiling(), arrShape, start, extent)
	sc.walkStandard(false)
	if err := sc.Fetch(st); err != nil {
		return 0, 0, err
	}
	return sc.walkStandard(true), sc.Len(), nil
}

// rangeSumNonStandard is the non-standard kernel behind RangeSumNonStandard
// and PointViaRootPathNonStandard (extent all ones).
func (sc *scratch) rangeSumNonStandard(st *tile.Store, tiling *tile.NonStandard, start, extent []int) (float64, int, error) {
	sc.planNonStandard(tiling, start, extent)
	if err := sc.Fetch(st); err != nil {
		return 0, 0, err
	}
	return sc.foldNonStandard(tiling, sc.queries[0]), sc.Len(), nil
}

// nsQuery is one box of a non-standard plan: its levels' spans from
// spans, its tiles tiles..end, how many (tile, level) pairs they span, and
// its volume.
type nsQuery struct {
	spans, tiles, end, pairs int
	vol                      float64
}

// nsTile is one tile a non-standard plan reads: its block, the levels
// j..low of its band (j that of its root cell), and rel, which says per
// dimension t, in bits 2t (low) and 2t+1 (high), which ends of the box the
// tile holds.
type nsTile struct {
	block, j, low, rel int
}

// span is one dimension of a box against one quadtree level: the cells
// lo..hi the box reaches, the cells in..inEnd it covers whole, and the
// box's Overlap (T, D) with the two end cells. An end cell is cut — the
// box neither covers nor misses it — iff it lies outside in..inEnd.
type span struct {
	lo, hi, in, inEnd int
	tLo, dLo          float64
	tHi, dHi          float64
}

func newSpan(s, e, j int) span {
	sp := span{lo: s >> uint(j), hi: (e - 1) >> uint(j)}
	tLo, dLo := haar.Overlap(s, e, j, sp.lo)
	sp.tLo, sp.dLo = float64(tLo), float64(dLo)
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
	return sp
}

// cut reports whether the box cuts cell c of the span.
func (sp *span) cut(c int) bool {
	return c == sp.lo && sp.in > sp.lo || c == sp.hi && sp.inEnd < sp.hi
}

// planNonStandard plans the box [start, start+extent): it records the box
// against every level and names, in ascending block order, the overall
// average's block and every tile whose root cell the box cuts. Those are
// the blocks of all cut cells: a cut cell's ancestors are cut too, and a
// node shares the tile of its nearest tile-root ancestor. Every cut cell's
// tile is read even where all its weights happen to cancel, so the set
// read is a function of the box and the tiling alone.
func (sc *scratch) planNonStandard(tiling *tile.NonStandard, start, extent []int) {
	levels, d := tiling.Levels(), len(start)
	q := nsQuery{spans: len(sc.spans), tiles: len(sc.tiles), vol: 1}
	for _, e := range extent {
		q.vol *= float64(e)
	}
	// The lists are sized up front, so an arena fresh from the pool grows
	// each once rather than append by append.
	sc.spans = slices.Grow(sc.spans, len(levels)*d)
	for j := 1; j <= len(levels); j++ {
		for t, s := range start {
			sc.spans = append(sc.spans, newSpan(s, s+extent[t], j))
		}
	}
	tiles := 0
	for j := len(levels); j >= 1; j-- {
		if levels[j-1].TileRoot() {
			reached, covered := 1, 1
			for _, sp := range sc.spans[q.spans+(j-1)*d:][:d] {
				reached *= sp.hi - sp.lo + 1
				covered *= max(0, sp.inEnd-sp.in+1)
			}
			tiles += reached - covered
			q.pairs += (reached - covered) * (j - bandLow(levels, j) + 1)
		}
	}
	sc.tiles = slices.Grow(sc.tiles, tiles)
	sc.Want(0)
	sc.cell = resized(sc.cell, d)
	for j := len(levels); j >= 1; j-- {
		if levels[j-1].TileRoot() {
			sc.planTiles(levels[j-1], j, bandLow(levels, j), sc.spans[q.spans+(j-1)*d:][:d])
		}
	}
	q.end = len(sc.tiles)
	sc.queries = append(sc.queries, q)
}

// bandLow returns the lowest level of the band whose tiles are rooted at
// level j.
func bandLow(levels []tile.NonStdLevel, j int) int {
	for j > 1 && !levels[j-2].TileRoot() {
		j--
	}
	return j
}

// planTiles names the tiles rooted at level j whose root cell the box
// cuts. A tile's root index concatenates its root cell's coordinates,
// dimension 0 highest, so the cells are taken lexicographically: rows
// along the last dimension, whole where an earlier coordinate is a cut end
// cell and only the row's own cut ends elsewhere.
func (sc *scratch) planTiles(lvl tile.NonStdLevel, j, low int, spans []span) {
	last := len(spans) - 1
	for t, sp := range spans {
		sc.cell[t] = sp.lo
	}
	for {
		cut := false
		for t, c := range sc.cell[:last] {
			cut = cut || spans[t].cut(c)
		}
		sp := spans[last]
		for c := sp.lo; c <= sp.hi; c++ {
			if !cut && !sp.cut(c) {
				c = sp.inEnd // skip the covered cells to the hi end
				continue
			}
			sc.cell[last] = c
			root, local, rel := 0, 0, 0
			for t, x := range sc.cell {
				root, local = lvl.Push(root, local, x)
				if x == spans[t].lo {
					rel |= 1 << uint(2*t)
				}
				if x == spans[t].hi {
					rel |= 2 << uint(2*t)
				}
			}
			block, _ := lvl.At(root, local)
			sc.Want(block)
			sc.tiles = append(sc.tiles, nsTile{block: block, j: j, low: low, rel: rel})
		}
		t := last - 1
		for ; t >= 0; t-- {
			if sc.cell[t] < spans[t].hi {
				sc.cell[t]++
				break
			}
			sc.cell[t] = spans[t].lo
		}
		if t < 0 {
			return
		}
	}
}

// foldNonStandard sums one planned box from the fetched frames:
//
//	Σ_box a = avg·vol + Σ_j Σ_cell Σ_mask w[j, mask, cell] · Π_i (mask_i ? D_i : T_i)
//
// where only cut cells count (a covered cell has every D_i = 0, a missed
// one some T_i = 0). Tiles are folded in the plan's ascending block order,
// one frame each, every level of the tile's band in turn. Along each
// dimension a level-j cell holds an end of the box iff its tile's root
// cell does, so which of a tile's level-j cells are cut, where they sit in
// the tile and what they weigh depends on the level and the tile's rel
// alone: one recipe per (level, rel), built on first use and replayed for
// every tile that shares it.
func (sc *scratch) foldNonStandard(tiling *tile.NonStandard, q nsQuery) float64 {
	levels, d := tiling.Levels(), len(tiling.Domain())
	rels := 1 << uint(2*d)
	sc.recipes = resized(sc.recipes, len(levels)*rels)
	sc.gen++
	sc.edges, sc.weights = resized(sc.edges, d), resized(sc.weights, 1<<uint(d))
	// A recipe per (tile, level) pair at most, a term and a run per face
	// recipe: enough for most boxes at the first try.
	sc.terms, sc.runs = slices.Grow(sc.terms[:0], q.pairs), slices.Grow(sc.runs[:0], q.pairs)
	sum := sc.Frame(0)[0] * q.vol
	for _, tl := range sc.tiles[q.tiles:q.end] {
		frame := sc.Frame(tl.block)
		for j := tl.j; j >= tl.low; j-- {
			r := &sc.recipes[(j-1)*rels+tl.rel]
			if r.gen != sc.gen {
				*r = sc.recipe(&levels[j-1], j, sc.spans[q.spans+(j-1)*d:][:d], tl.rel)
			}
			for _, tm := range sc.terms[r.lo:r.hi] {
				if tm.runs == tm.runsEnd { // a single node
					sum += tm.w * frame[tm.off]
				} else {
					sum += tm.w * sumBox(frame, tm.off, sc.runs[tm.runs:tm.runsEnd])
				}
			}
		}
	}
	return sum
}

// recipe is the fold of one level for the tiles of one rel: its terms
// sc.terms[lo:hi], valid while gen is the arena's current one.
type recipe struct{ gen, lo, hi int }

// term is one subband of one cut-set group inside a tile: the weight c_m
// its cells carry, the slot of its first node, and the group's free
// dimensions, sc.runs[runs:runsEnd].
type term struct {
	off, runs, runsEnd int
	w                  float64
}

// run is one free dimension of a cut-set group inside a tile: n nodes,
// step slots apart.
type run struct{ n, step int }

// edge is one dimension of a tile at one level: the cells of the tile the
// box covers whole, from..to counted from the tile's lowest cell (none
// when from > to), the cut end cells the tile holds (ends[:n]) and the one
// a group being added stands on (ends[pick]), and the slot step between
// neighbouring cells.
type edge struct {
	from, to, step, n, pick int
	ends                    [2]cutEnd
}

// cutEnd is a cut end cell inside a tile: its slot offset from the tile's
// lowest cell and the box's T and D on it.
type cutEnd struct {
	off  int
	t, d float64
}

// recipe builds the recipe of the level-j cut cells of a tile in relation
// rel to the box. They fall into cut-set groups: S is the set of
// dimensions on which a cell is a cut end cell, the others standing on
// covered cells. Every cell of a group (S and a choice of cut ends)
// carries the same weights — for each subband m ⊆ S, m ≠ 0,
//
//	c_m = Π_{i∈m} D_i · Π_{i∈S∖m} T_i · 2^{j(d−|S|)}
//
// — and the group's cells inside the tile form a box: a term per subband,
// a strided sum over runs along the group's last free dimension. For
// |S| = 1, the face interiors and nearly every cut cell, that is a single
// coefficient per cell.
func (sc *scratch) recipe(lvl *tile.NonStdLevel, j int, spans []span, rel int) recipe {
	d, depth := len(spans), uint(lvl.Depth())
	r := recipe{gen: sc.gen, lo: len(sc.terms)}
	ends := 0 // the dimensions with a cut end cell in the tile
	for t := range spans {
		sp, e := &spans[t], &sc.edges[t]
		e.step, e.n, e.pick = lvl.Step(t, d), 0, 0
		a := 0 // the tile's lowest cell
		switch rel >> uint(2*t) & 3 {
		case 0: // between the box's ends: every cell covered
			e.from, e.to = 0, 1<<depth-1
			continue
		case 1:
			a = sp.lo >> depth << depth
		default:
			a = sp.hi >> depth << depth
		}
		b := a + 1<<depth - 1
		e.from, e.to = max(sp.in, a)-a, min(sp.inEnd, b)-a
		if sp.in > sp.lo && a <= sp.lo && sp.lo <= b {
			e.ends[0] = cutEnd{off: (sp.lo - a) * e.step, t: sp.tLo, d: sp.dLo}
			e.n = 1
		}
		if sp.inEnd < sp.hi && a <= sp.hi && sp.hi <= b {
			e.ends[e.n] = cutEnd{off: (sp.hi - a) * e.step, t: sp.tHi, d: sp.dHi}
			e.n++
		}
		if e.n > 0 {
			ends |= 1 << uint(t)
		}
	}
	size := float64(int(1) << uint(j))
	for set := ends; set > 0; set = (set - 1) & ends {
		// The dimensions outside S stand on covered cells: the group's
		// runs, or a single cell.
		off, scale, runs := lvl.Origin(), 1.0, len(sc.runs)
		t := 0
		for ; t < d; t++ {
			e := &sc.edges[t]
			if set>>uint(t)&1 == 1 {
				continue
			}
			if e.from > e.to {
				break
			}
			off += e.from * e.step
			scale *= size
			if e.to > e.from {
				sc.runs = append(sc.runs, run{n: e.to - e.from + 1, step: e.step})
			}
		}
		if t < d {
			sc.runs = sc.runs[:runs]
			continue
		}
		sc.addTerms(set, off, scale, runs)
	}
	r.hi = len(sc.terms)
	return r
}

// addTerms adds the terms of the groups of cut set S: every choice of cut
// ends along S (the edges' picks, all zero between calls), every subband m ⊆ S,
// its weight built up one dimension of S at a time; the detail of subband
// m sits at slot + m - 1.
func (sc *scratch) addTerms(set, off int, scale float64, runs int) {
	d, w := len(sc.edges), sc.weights
	for {
		cell, done := off, 0
		w[0] = scale
		for t := 0; t < d; t++ {
			bit := 1 << uint(t)
			if set&bit == 0 {
				continue
			}
			x := &sc.edges[t].ends[sc.edges[t].pick]
			cell += x.off
			for m := done; ; m = (m - 1) & done {
				w[m|bit] = w[m] * x.d
				w[m] *= x.t
				if m == 0 {
					break
				}
			}
			done |= bit
		}
		for m := set; m > 0; m = (m - 1) & set {
			sc.terms = append(sc.terms, term{off: cell + m - 1, runs: runs, runsEnd: len(sc.runs), w: w[m]})
		}
		t := d - 1
		for ; t >= 0; t-- {
			if set>>uint(t)&1 == 0 {
				continue
			}
			e := &sc.edges[t]
			if e.pick++; e.pick < e.n {
				break
			}
			e.pick = 0
		}
		if t < 0 {
			return
		}
	}
}

// sumBox sums frame over a box of nodes: from off, runs[0].n nodes
// runs[0].step apart, each the start of the box of the remaining runs, the
// last run innermost. runs is not empty.
func sumBox(frame []float64, off int, runs []run) float64 {
	r, sum := runs[0], 0.0
	for k := 0; k < r.n; k++ {
		if len(runs) == 1 {
			sum += frame[off]
		} else {
			sum += sumBox(frame, off, runs[1:])
		}
		off += r.step
	}
	return sum
}
