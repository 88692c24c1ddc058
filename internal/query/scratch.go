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

	// Standard-form plan: per dimension, the Lemma-2 list located in that
	// dimension's tiling and sorted by tile.
	coefs   []haar.Coef
	entries []entry
	axes    []axis
	edge    int   // slots per dimension of a standard block
	coords  []int // one coefficient's coordinates (tilings other than Standard)

	// Non-standard plan: per dimension, the box against one quadtree level;
	// unit is the all-ones extent of a point's box.
	unit     []int
	spans    []span
	from, to []int // cell ranges of the face being walked
	cell     []int
	low      []float64 // per subband over the leading dimensions, the product of their D and T
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

// entry is one coefficient of a dimension's Lemma-2 list: where it sits in
// that dimension's 1-d tiling and the weight D (the extent, for index 0) it
// carries.
type entry struct {
	tile, slot int
	w          float64
}

// axis is one dimension of a standard-form plan: entries[lo:hi] sorted by
// tile, and entries[glo:ghi], the run inside the tile the walk stands on.
type axis struct {
	lo, hi   int
	glo, ghi int
	stride   int // block-id step per tile along this dimension
}

// planStandard lists, per dimension, the coefficients of the box
// [start, start+extent) — of the cell at start when extent is nil — and
// groups them by tile. A d-dimensional standard block is the cross product
// of one tile per dimension, so the blocks of the query are the cross
// product of the axes' tiles and each is visited once. Under a tiling
// other than Standard there is no per-dimension tile: every coefficient
// becomes its own run and is located whole by walkStandard.
func (sc *scratch) planStandard(tiling tile.Tiling, arrShape, start, extent []int) {
	std, _ := tiling.(*tile.Standard)
	sc.entries, sc.axes = sc.entries[:0], sc.axes[:0]
	sc.coords = resized(sc.coords, len(start))
	if std != nil {
		sc.edge = std.Dim(0).BlockSize()
	}
	for t, l := range start {
		r := l
		if extent != nil {
			r = l + extent[t] - 1
		}
		sc.coefs = haar.AppendRangeSumCoefs(sc.coefs[:0], bitutil.Log2(arrShape[t]), l, r)
		a := axis{lo: len(sc.entries)}
		if std != nil {
			a.stride = std.Stride(t)
		}
		for _, c := range sc.coefs {
			e := entry{tile: c.Index, slot: c.Index, w: c.Weight}
			if std != nil {
				e.tile, e.slot = std.Dim(t).Locate1D(c.Index)
			}
			sc.entries = append(sc.entries, e)
		}
		a.hi = len(sc.entries)
		// Stable, so slots inside a tile keep the list's level order and
		// the sum folds in the same order on every call.
		slices.SortStableFunc(sc.entries[a.lo:a.hi], func(x, y entry) int { return x.tile - y.tile })
		a.glo, a.ghi = a.lo, sc.runEnd(a.lo, a.hi)
		sc.axes = append(sc.axes, a)
	}
}

// runEnd returns the end of the run of entries sharing entries[from]'s tile.
func (sc *scratch) runEnd(from, hi int) int {
	i := from + 1
	for i < hi && sc.entries[i].tile == sc.entries[from].tile {
		i++
	}
	return i
}

// nextTile steps the axes to the next combination of per-dimension tiles,
// last dimension fastest (ascending block ids under NewStandard's strides;
// fetch sorts whatever order the tiling gives). After the last combination
// it reports false with the axes back on the first.
func (sc *scratch) nextTile() bool {
	for t := len(sc.axes) - 1; t >= 0; t-- {
		a := &sc.axes[t]
		if a.ghi < a.hi {
			a.glo, a.ghi = a.ghi, sc.runEnd(a.ghi, a.hi)
			return true
		}
		a.glo, a.ghi = a.lo, sc.runEnd(a.lo, a.hi)
	}
	return false
}

// walkStandard visits every block of the plan once: to name it for the
// fetch, or, once fetched, to fold its weighted slots.
func (sc *scratch) walkStandard(tiling tile.Tiling, accumulate bool) float64 {
	_, std := tiling.(*tile.Standard)
	sum := 0.0
	for {
		block, slot, w := 0, 0, 1.0
		if std {
			for _, a := range sc.axes {
				block += sc.entries[a.glo].tile * a.stride
			}
		} else {
			for t, a := range sc.axes {
				sc.coords[t] = sc.entries[a.glo].slot
				w *= sc.entries[a.glo].w
			}
			block, slot = tiling.Locate(sc.coords)
		}
		switch {
		case !accumulate:
			sc.Want(block)
		case std:
			sum += sc.sumTile(sc.Frame(block), 0, 0)
		default:
			sum += w * sc.Frame(block)[slot]
		}
		if !sc.nextTile() {
			return sum
		}
	}
}

// sumTile folds one standard block: the cross product of the axes' current
// runs, with slot = (slot_0*B + slot_1)*B + ... and weight the product.
func (sc *scratch) sumTile(frame []float64, t, slot int) float64 {
	a := sc.axes[t]
	sum := 0.0
	if t == len(sc.axes)-1 {
		for _, e := range sc.entries[a.glo:a.ghi] {
			sum += e.w * frame[slot*sc.edge+e.slot]
		}
		return sum
	}
	for _, e := range sc.entries[a.glo:a.ghi] {
		sum += e.w * sc.sumTile(frame, t+1, slot*sc.edge+e.slot)
	}
	return sum
}

// rangeSumStandard is the standard-form kernel behind RangeSumStandard
// (extent set) and PointViaRootPath (extent nil).
func (sc *scratch) rangeSumStandard(st *tile.Store, arrShape, start, extent []int) (float64, int, error) {
	sc.planStandard(st.Tiling(), arrShape, start, extent)
	sc.walkStandard(st.Tiling(), false)
	if err := sc.Fetch(st); err != nil {
		return 0, 0, err
	}
	return sc.walkStandard(st.Tiling(), true), sc.Len(), nil
}

// rangeSumNonStandard is the non-standard kernel behind RangeSumNonStandard
// and PointViaRootPathNonStandard (extent all ones).
func (sc *scratch) rangeSumNonStandard(st *tile.Store, tiling *tile.NonStandard, start, extent []int) (float64, int, error) {
	sc.walkNonStandard(tiling, start, extent, false)
	if err := sc.Fetch(st); err != nil {
		return 0, 0, err
	}
	return sc.walkNonStandard(tiling, start, extent, true), sc.Len(), nil
}

// walkNonStandard names the blocks of the box [start, start+extent) or,
// once fetched, sums it: avg*vol plus every level's cut cells.
func (sc *scratch) walkNonStandard(tiling *tile.NonStandard, start, extent []int, accumulate bool) float64 {
	n := bitutil.Log2(tiling.Domain()[0])
	if !accumulate {
		sc.Want(0) // the overall average
		for j := n; j >= 1; j-- {
			// A cut cell's ancestors are cut too, and its node shares the
			// tile of the ancestor that is a tile root: those levels name
			// every block.
			if lvl := tiling.Level(j); lvl.TileRoot() {
				sc.walkLevel(lvl, j, start, extent, false)
			}
		}
		return 0
	}
	vol := 1.0
	for _, e := range extent {
		vol *= float64(e)
	}
	sum := sc.Frame(0)[0] * vol
	for j := n; j >= 1; j-- {
		sum += sc.walkLevel(tiling.Level(j), j, start, extent, true)
	}
	return sum
}

// span is one dimension of a box against one quadtree level: the cells
// lo..hi the box reaches, its Overlap (T, D) with the two end cells, and
// the cells in..inEnd it covers whole, where T is the cell edge and D is 0.
type span struct {
	lo, hi    int
	tLo, dLo  float64
	tHi, dHi  float64
	in, inEnd int
	// The box cuts cell lo / cell hi (hi counted only when hi != lo).
	cutLo, cutHi bool
}

// walkLevel visits the level-j cells the box [start, start+extent) cuts —
// those it neither covers nor misses — to name their blocks or, once
// fetched, to fold their details. A cell's detail of subband mask carries
// the product over dimensions of D_i where mask differences along i and
// T_i where it averages; a covered cell has every D_i = 0, so only cut
// cells count, and a cell is cut iff it is an end cell, cut by the box,
// along at least one dimension. The cut cells are walked face by face:
// face i fixes dimension i on a cut end cell, keeps dimensions before i on
// whole-covered cells (so no cell is visited twice) and lets dimensions
// after i range over every cell the box reaches.
//
// Every cut cell's block is read even where all its weights happen to
// cancel: the set read is a function of the box and the tiling alone.
func (sc *scratch) walkLevel(lvl tile.NonStdLevel, j int, start, extent []int, accumulate bool) float64 {
	d := len(start)
	sc.spans = resized(sc.spans, d)
	sc.from, sc.to, sc.cell = resized(sc.from, d), resized(sc.to, d), resized(sc.cell, d)
	sc.low = resized(sc.low, 1<<uint(d-1))
	size := 1 << uint(j)
	for i := range sc.spans {
		s, e := start[i], start[i]+extent[i]
		sp := span{lo: s >> uint(j), hi: (e - 1) >> uint(j)}
		tLo, dLo := haar.Overlap(s, e, j, sp.lo)
		tHi, dHi := haar.Overlap(s, e, j, sp.hi)
		sp.tLo, sp.dLo, sp.tHi, sp.dHi = float64(tLo), float64(dLo), float64(tHi), float64(dHi)
		sp.cutLo = tLo < size
		sp.cutHi = sp.hi != sp.lo && tHi < size
		sp.in, sp.inEnd = sp.lo, sp.hi
		if sp.cutLo {
			sp.in++
		}
		if sp.cutHi {
			sp.inEnd--
		}
		sc.spans[i] = sp
	}
	sum := 0.0
	for i, sp := range sc.spans {
		if sp.cutLo {
			sum += sc.walkFace(lvl, size, i, sp.lo, accumulate)
		}
		if sp.cutHi {
			sum += sc.walkFace(lvl, size, i, sp.hi, accumulate)
		}
	}
	return sum
}

// overlap returns the box's T and D along the span's dimension with cell c.
func (sp *span) overlap(c, size int) (t, d float64) {
	switch c {
	case sp.lo:
		return sp.tLo, sp.dLo
	case sp.hi:
		return sp.tHi, sp.dHi
	}
	return float64(size), 0
}

// walkFace visits the cells of one face of walkLevel: dimension i at cell
// v, earlier dimensions on whole-covered cells, later ones unrestricted.
// Cells are taken in rows along the last dimension: what the leading
// dimensions contribute — the node indices so far and, per subband over
// those dimensions, the product of their D and T — is worked out once per
// row.
func (sc *scratch) walkFace(lvl tile.NonStdLevel, size, i, v int, accumulate bool) float64 {
	for t, sp := range sc.spans {
		switch {
		case t < i:
			sc.from[t], sc.to[t] = sp.in, sp.inEnd
		case t == i:
			sc.from[t], sc.to[t] = v, v
		default:
			sc.from[t], sc.to[t] = sp.lo, sp.hi
		}
		if sc.from[t] > sc.to[t] {
			return 0
		}
	}
	copy(sc.cell, sc.from)
	last := len(sc.cell) - 1
	top := 1 << uint(last) // the subband bit of the last dimension
	sum := 0.0
	for {
		root, local := 0, 0
		sc.low[0] = 1
		for t, c := range sc.cell[:last] {
			root, local = lvl.Push(root, local, c)
			tw, dw := sc.spans[t].overlap(c, size)
			for m := 0; m < 1<<uint(t); m++ {
				sc.low[m|1<<uint(t)] = sc.low[m] * dw
				sc.low[m] *= tw
			}
		}
		for c := sc.from[last]; c <= sc.to[last]; c++ {
			block, slot := lvl.At(lvl.Push(root, local, c))
			if !accumulate {
				sc.Want(block)
				continue
			}
			frame := sc.Frame(block)
			tw, dw := sc.spans[last].overlap(c, size)
			// Subband m|top differences along the last dimension, m
			// averages along it; m = 0 alone is the average, not a detail.
			part := dw * sc.low[0] * frame[slot+top-1]
			for m := 1; m < top; m++ {
				part += sc.low[m] * (tw*frame[slot+m-1] + dw*frame[slot+m+top-1])
			}
			sum += part
		}
		t := last - 1
		for ; t >= 0; t-- {
			if sc.cell[t] < sc.to[t] {
				sc.cell[t]++
				break
			}
			sc.cell[t] = sc.from[t]
		}
		if t < 0 {
			return sum
		}
	}
}
