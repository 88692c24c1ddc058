package query

import (
	"slices"
	"sync"

	"github.com/shiftsplit/shiftsplit/internal/bitutil"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
)

// scratch is the arena of one query: the blocks its plan asks for, the
// frames they are fetched into, and the plan's own lists. It is taken from
// the pool after validation and put back when the kernel returns; nothing
// in it may outlive that (the kernels return floats and counts only), so a
// recycled arena is never read through by an earlier query.
//
// The fetch borrows what the serve cache holds: a hit's frame is the cache
// slot itself, pinned by lease, and putScratch returns the lease with the
// arena, so a lent frame lives exactly as long as every other frame of the
// arena. The kernels only read frames.
type scratch struct {
	tile.FetchSet
	lease storage.Lease

	// Standard-form plan: per dimension the query's list, located.
	plan tile.Plan

	// Non-standard plan, and the fold of one query: its recipes per
	// (level, rel), valid while stamped with gen, and their terms; while
	// a recipe is built, per dimension the cut end a group stands on and
	// the group's weight per subband. unit is the all-ones extent of a
	// point's box.
	ns      tile.NonStdPlan
	unit    []int
	recipes []recipe
	gen     int
	terms   []term
	runs    []run
	picks   []int
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
	return sc
}

func putScratch(sc *scratch) {
	sc.lease.Return()
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
	if err := sc.Fetch(st, &sc.lease); err != nil {
		return 0, 0, err
	}
	return sc.walkStandard(true), sc.Len(), nil
}

// rangeSumNonStandard is the non-standard kernel behind RangeSumNonStandard
// and PointViaRootPathNonStandard (extent all ones).
func (sc *scratch) rangeSumNonStandard(st *tile.Store, tiling *tile.NonStandard, start, extent []int) (float64, int, error) {
	sc.wantNonStandard(tiling, start, extent)
	if err := sc.Fetch(st, &sc.lease); err != nil {
		return 0, 0, err
	}
	return sc.foldNonStandard(tiling, extent), sc.Len(), nil
}

// wantNonStandard plans the box [start, start+extent) (tile.NonStdPlan.
// RangeSum) and names its blocks for the fetch, the overall average's
// first.
func (sc *scratch) wantNonStandard(tiling *tile.NonStandard, start, extent []int) {
	p := &sc.ns
	p.RangeSum(tiling, start, extent)
	sc.Want(0)
	for p.Next() {
		sc.Want(p.Block())
	}
}

// foldNonStandard sums the planned box of the given extent from the
// fetched frames:
//
//	Σ_box a = avg·vol + Σ_j Σ_cell Σ_mask w[j, mask, cell] · Π_i (mask_i ? D_i : T_i)
//
// where only cut cells count (a covered cell has every D_i = 0, a missed
// one some T_i = 0). Tiles are folded in the plan's ascending block order,
// one frame each, every level of the tile's band in turn. Which of a
// tile's level-j cells are cut, where they sit in the tile and what they
// weigh depends on the level and the tile's rel alone: one recipe per
// (level, rel), built on first use and replayed for every tile that
// shares it.
func (sc *scratch) foldNonStandard(tiling *tile.NonStandard, extent []int) float64 {
	p, d, n := &sc.ns, len(extent), bitutil.Log2(tiling.Domain()[0])
	rels := 1 << uint(2*d)
	sc.recipes = resized(sc.recipes, n*rels)
	sc.gen++
	sc.picks, sc.weights = resized(sc.picks, d), resized(sc.weights, 1<<uint(d))
	clear(sc.picks)
	// A recipe per (tile, level) pair at most, a term and a run per face
	// recipe: enough for most boxes at the first try.
	sc.terms, sc.runs = slices.Grow(sc.terms[:0], p.Pairs()), slices.Grow(sc.runs[:0], p.Pairs())
	vol := 1.0
	for _, e := range extent {
		vol *= float64(e)
	}
	sum := sc.Frame(0)[0] * vol
	for p.Next() {
		frame, rel := sc.Frame(p.Block()), p.Rel()
		hi, low := p.Levels()
		for j := hi; j >= low; j-- {
			r := &sc.recipes[(j-1)*rels+rel]
			if r.gen != sc.gen {
				*r = sc.recipe(p.Box(j), j)
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

// recipe builds the recipe of the cut cells of box, level j of a tile,
// for every tile of the same rel. They fall into cut-set groups: S is the set of
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
func (sc *scratch) recipe(box *tile.NonStdBox, j int) recipe {
	r := recipe{gen: sc.gen, lo: len(sc.terms)}
	ends := 0 // the dimensions with a cut end cell in the tile
	for t, e := range box.Edges {
		if e.N > 0 {
			ends |= 1 << uint(t)
		}
	}
	size := float64(int(1) << uint(j))
	for set := ends; set > 0; set = (set - 1) & ends {
		// The dimensions outside S stand on covered cells: the group's
		// runs, or a single cell.
		off, scale, runs := box.Origin, 1.0, len(sc.runs)
		t := 0
		for ; t < len(box.Edges); t++ {
			e := &box.Edges[t]
			if set>>uint(t)&1 == 1 {
				continue
			}
			if e.From > e.To {
				break
			}
			off += e.From * e.Step
			scale *= size
			if e.To > e.From {
				sc.runs = append(sc.runs, run{n: e.To - e.From + 1, step: e.Step})
			}
		}
		if t < len(box.Edges) {
			sc.runs = sc.runs[:runs]
			continue
		}
		sc.addTerms(box.Edges, set, off, scale, runs)
	}
	r.hi = len(sc.terms)
	return r
}

// addTerms adds the terms of the groups of cut set S: every choice of cut
// ends along S (sc.picks, all zero between calls), every subband m ⊆ S,
// its weight built up one dimension of S at a time; the detail of subband
// m sits at slot + m - 1.
func (sc *scratch) addTerms(edges []tile.NonStdEdge, set, off int, scale float64, runs int) {
	w := sc.weights
	for {
		cell, done := off, 0
		w[0] = scale
		for t := range edges {
			bit := 1 << uint(t)
			if set&bit == 0 {
				continue
			}
			x := &edges[t].Ends[sc.picks[t]]
			cell += x.Off
			for m := done; ; m = (m - 1) & done {
				w[m|bit] = w[m] * x.D
				w[m] *= x.T
				if m == 0 {
					break
				}
			}
			done |= bit
		}
		for m := set; m > 0; m = (m - 1) & set {
			sc.terms = append(sc.terms, term{off: cell + m - 1, runs: runs, runsEnd: len(sc.runs), w: w[m]})
		}
		t := len(edges) - 1
		for ; t >= 0; t-- {
			if set>>uint(t)&1 == 0 {
				continue
			}
			if sc.picks[t]++; sc.picks[t] < edges[t].N {
				break
			}
			sc.picks[t] = 0
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
