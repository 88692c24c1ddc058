// Package query answers point and range-sum queries directly from tiled,
// disk-resident wavelet transforms, counting the block I/O each strategy
// pays. It demonstrates the two benefits §3 claims for the block allocation
// strategy: path locality (a root path crosses ~log_B N tiles instead of
// log N blocks) and the stored per-tile scaling coefficients, which let a
// point query finish after reading a single block.
package query

import (
	"fmt"

	"github.com/shiftsplit/shiftsplit/internal/tile"
)

// PointStandard answers a point query from a standard-form tiled store
// whose scaling slots are valid using only the deepest tile per dimension:
// the tile's scaling slot plus the in-tile path details reconstruct the
// value, so exactly one block is read.
func PointStandard(st *tile.Store, point []int) (float64, int, error) {
	tiling, ok := st.Tiling().(*tile.Standard)
	if !ok {
		return 0, 0, fmt.Errorf("query: PointStandard needs a *Standard tiling, got %T", st.Tiling())
	}
	if err := ValidatePoint(tiling.Domain(), point); err != nil {
		return 0, 0, err
	}
	sc := getScratch()
	defer putScratch(sc)
	block := sc.planLeafStandard(tiling, point)
	sc.Want(block)
	if err := sc.Fetch(st); err != nil {
		return 0, 0, err
	}
	return foldFlat(&sc.plan, sc.Frame(block)), sc.Len(), nil
}

// PointStandardBatch answers many point queries from a standard-form tiled
// store whose scaling slots are valid: it fetches the points' distinct leaf
// tiles with one vectored read and evaluates each point from its own,
// returning the values and the number of distinct blocks read.
func PointStandardBatch(st *tile.Store, points [][]int) ([]float64, int, error) {
	tiling, ok := st.Tiling().(*tile.Standard)
	if !ok {
		return nil, 0, fmt.Errorf("query: PointStandardBatch needs a *Standard tiling, got %T", st.Tiling())
	}
	return pointBatch(st, tiling.Domain(), points, func(sc *scratch, p []int, accumulate bool) float64 {
		block := sc.planLeafStandard(tiling, p)
		if !accumulate {
			sc.Want(block)
			return 0
		}
		return foldFlat(&sc.plan, sc.Frame(block))
	})
}

// PointNonStandard answers a point query from a non-standard tiled store
// whose scaling slots are valid, reading only the leaf tile: its scaling
// slot plus the quadtree path inside it.
func PointNonStandard(st *tile.Store, point []int) (float64, int, error) {
	tiling, ok := st.Tiling().(*tile.NonStandard)
	if !ok {
		return 0, 0, fmt.Errorf("query: PointNonStandard needs a *NonStandard tiling, got %T", st.Tiling())
	}
	if err := ValidatePoint(tiling.Domain(), point); err != nil {
		return 0, 0, err
	}
	sc := getScratch()
	defer putScratch(sc)
	sc.wantLeaf(tiling, point)
	if err := sc.Fetch(st); err != nil {
		return 0, 0, err
	}
	return sc.foldLeaf(), sc.Len(), nil
}

// PointNonStandardBatch is PointStandardBatch for a non-standard tiled
// store whose scaling slots are valid: one vectored read of the points'
// distinct leaf tiles, each point folded from its own.
func PointNonStandardBatch(st *tile.Store, points [][]int) ([]float64, int, error) {
	tiling, ok := st.Tiling().(*tile.NonStandard)
	if !ok {
		return nil, 0, fmt.Errorf("query: PointNonStandardBatch needs a *NonStandard tiling, got %T", st.Tiling())
	}
	return pointBatch(st, tiling.Domain(), points, func(sc *scratch, p []int, accumulate bool) float64 {
		if !accumulate {
			sc.wantLeaf(tiling, p)
			return 0
		}
		sc.ns.Leaf(tiling, p)
		return sc.foldLeaf()
	})
}

// planLeafStandard plans a point from its leaf tile, the tile holding the
// level-1 detail over the point along every dimension (tile.Plan.LeafPath),
// and returns the leaf block.
func (sc *scratch) planLeafStandard(tiling *tile.Standard, point []int) int {
	sc.plan.Reset(tiling)
	for _, p := range point {
		sc.plan.LeafPath(p)
	}
	block, _ := sc.plan.Block()
	return block
}

// wantLeaf plans a point's leaf path (tile.NonStdPlan.Leaf) and names its
// leaf tile for the fetch.
func (sc *scratch) wantLeaf(tiling *tile.NonStandard, point []int) {
	block := 0 // a one-cell domain has only the top tile
	sc.ns.Leaf(tiling, point)
	for sc.ns.Next() {
		block = sc.ns.Block()
	}
	sc.Want(block)
}

// foldLeaf evaluates the planned point from its fetched leaf tile: the
// tile's root-cell scaling coefficient in slot 0, plus at each level from
// the tile's root down the details of the node over the point, weighted
// by the point's side of it.
func (sc *scratch) foldLeaf() float64 {
	p := &sc.ns
	if !p.Next() {
		return sc.Frame(0)[0] // a one-cell domain holds only its average
	}
	frame := sc.Frame(p.Block())
	return p.FoldPath(frame[0], frame)
}

// The kernels below share one shape: plan, fetch, accumulate. The plan
// works the Lemma-1/Lemma-2 weights out in closed form (haar.Overlap) and
// names the blocks they fall in; one vectored read fetches those blocks into
// a pooled arena (scratch.go); a flat loop per tile folds weight times slot.
// Nothing is allocated per coefficient, and the blocks read are exactly the
// distinct tiles under the coefficients with a nonzero weight, which is what
// the paper's query costs count.

// PointViaRootPath answers a point query by reading the full Lemma-1
// coefficient cross product through whatever tiling the store uses — the
// strategy available without the stored scaling coefficients. The returned
// count is the number of distinct blocks read, which is what the tiling
// ablation compares.
func PointViaRootPath(st *tile.Store, shape, point []int) (float64, int, error) {
	if err := ValidatePoint(shape, point); err != nil {
		return 0, 0, err
	}
	sc := getScratch()
	defer putScratch(sc)
	// A cell is the box of extent 1: its Lemma-2 list is the Lemma-1 path,
	// the weights D the path's signs.
	return sc.rangeSumStandard(st, shape, point, nil)
}

// RangeSumStandard answers a box aggregate over [start, start+shape) by
// combining the Lemma-2 coefficient set through the store, returning the
// sum and the number of distinct blocks read.
func RangeSumStandard(st *tile.Store, arrShape, start, shape []int) (float64, int, error) {
	if err := ValidateBox(arrShape, start, shape); err != nil {
		return 0, 0, err
	}
	sc := getScratch()
	defer putScratch(sc)
	return sc.rangeSumStandard(st, arrShape, start, shape)
}

// PointBatch answers many point queries against a standard-form tiled store
// with one fetch of the union of their root paths' blocks, returning the
// values and the number of distinct blocks read for the whole batch.
// Batching amortizes the shared upper-tree tiles across queries — the
// access-pattern benefit the tiling was designed for.
func PointBatch(st *tile.Store, shape []int, points [][]int) ([]float64, int, error) {
	return pointBatch(st, shape, points, func(sc *scratch, p []int, accumulate bool) float64 {
		sc.planStandard(st.Tiling(), shape, p, nil)
		return sc.walkStandard(accumulate)
	})
}

// pointBatch validates every point, then answers them with one fetch of the
// union of their blocks: walk names point i's blocks or, once fetched,
// evaluates it.
func pointBatch(st *tile.Store, shape []int, points [][]int, walk func(sc *scratch, p []int, accumulate bool) float64) ([]float64, int, error) {
	for _, p := range points {
		if err := ValidatePoint(shape, p); err != nil {
			return nil, 0, err
		}
	}
	sc := getScratch()
	defer putScratch(sc)
	for _, p := range points {
		walk(sc, p, false)
	}
	if err := sc.Fetch(st); err != nil {
		return nil, 0, err
	}
	out := make([]float64, len(points))
	for i, p := range points {
		out[i] = walk(sc, p, true)
	}
	return out, sc.Len(), nil
}

// RangeSumNonStandard answers a box aggregate from a non-standard tiled
// store as avg*vol plus, for every quadtree cell the box cuts, its details
// weighted by the per-dimension overlaps (see foldNonStandard). Cells the box
// covers whole or misses carry weight zero and are never visited, so the
// fold follows the box faces tile by tile.
func RangeSumNonStandard(st *tile.Store, start, shape []int) (float64, int, error) {
	tiling, ok := st.Tiling().(*tile.NonStandard)
	if !ok {
		return 0, 0, fmt.Errorf("query: RangeSumNonStandard needs a *NonStandard tiling, got %T", st.Tiling())
	}
	arrShape, _ := domainShape(st)
	if err := ValidateBox(arrShape, start, shape); err != nil {
		return 0, 0, err
	}
	sc := getScratch()
	defer putScratch(sc)
	return sc.rangeSumNonStandard(st, tiling, start, shape)
}

// PointViaRootPathNonStandard answers a point query from a non-standard
// tiled store without stored scaling coefficients: a cell is the box of
// extent 1, so the range-sum kernel reads its quadtree path and weights
// each level's details by the cell's signs.
func PointViaRootPathNonStandard(st *tile.Store, point []int) (float64, int, error) {
	tiling, ok := st.Tiling().(*tile.NonStandard)
	if !ok {
		return 0, 0, fmt.Errorf("query: PointViaRootPathNonStandard needs a *NonStandard tiling, got %T", st.Tiling())
	}
	arrShape, _ := domainShape(st)
	if err := ValidatePoint(arrShape, point); err != nil {
		return 0, 0, err
	}
	sc := getScratch()
	defer putScratch(sc)
	return sc.rangeSumNonStandard(st, tiling, point, sc.ones(len(point)))
}

// PointBatchNonStandard is PointBatch for a non-standard tiled store: the
// union of the points' quadtree paths is fetched with one vectored read and
// each point is summed as the box of extent 1.
func PointBatchNonStandard(st *tile.Store, points [][]int) ([]float64, int, error) {
	tiling, ok := st.Tiling().(*tile.NonStandard)
	if !ok {
		return nil, 0, fmt.Errorf("query: PointBatchNonStandard needs a *NonStandard tiling, got %T", st.Tiling())
	}
	return pointBatch(st, tiling.Domain(), points, func(sc *scratch, p []int, accumulate bool) float64 {
		if !accumulate {
			sc.wantNonStandard(tiling, p, sc.ones(len(p)))
			return 0
		}
		sc.ns.RangeSum(tiling, p, sc.ones(len(p)))
		return sc.foldNonStandard(tiling, sc.unit)
	})
}
