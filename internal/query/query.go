// Package query answers point and range-sum queries directly from tiled,
// disk-resident wavelet transforms, counting the block I/O each strategy
// pays. It demonstrates the two benefits §3 claims for the block allocation
// strategy: path locality (a root path crosses ~log_B N tiles instead of
// log N blocks) and the stored per-tile scaling coefficients, which let a
// point query finish after reading a single block.
package query

import (
	"fmt"

	"github.com/shiftsplit/shiftsplit/internal/haar"
	"github.com/shiftsplit/shiftsplit/internal/tile"
)

// PointStandard answers a point query from a materialized standard-form
// tiled store using only the deepest tile per dimension: the tile's scaling
// slot plus the in-tile path details reconstruct the value, so exactly one
// block is read. The store must have been filled with
// tile.MaterializeStandard.
func PointStandard(st *tile.Store, point []int) (float64, int, error) {
	tiling, ok := st.Tiling().(*tile.Standard)
	if !ok {
		return 0, 0, fmt.Errorf("query: PointStandard needs a *Standard tiling, got %T", st.Tiling())
	}
	arrShape, _ := domainShape(st)
	if err := ValidatePoint(arrShape, point); err != nil {
		return 0, 0, err
	}
	data, err := st.ReadTile(leafStandard(tiling, point))
	if err != nil {
		return 0, 0, err
	}
	return pointInLeaf(tiling, point, data), 1, nil
}

// PointStandardBatch answers many point queries from a materialized
// standard-form tiled store: it fetches the points' distinct leaf tiles with
// one vectored read and evaluates each point from its own, returning the
// values and the number of distinct blocks read.
func PointStandardBatch(st *tile.Store, points [][]int) ([]float64, int, error) {
	tiling, ok := st.Tiling().(*tile.Standard)
	if !ok {
		return nil, 0, fmt.Errorf("query: PointStandardBatch needs a *Standard tiling, got %T", st.Tiling())
	}
	return pointBatch(st, tiling.Domain(), points, func(sc *scratch, _ int, p []int, accumulate bool) float64 {
		if !accumulate {
			sc.Want(leafStandard(tiling, p))
			return 0
		}
		return pointInLeaf(tiling, p, sc.Frame(leafStandard(tiling, p)))
	})
}

// leafStandard returns the block of a point's leaf tile: per dimension, the
// tile holding the level-1 detail over the point.
func leafStandard(tiling *tile.Standard, point []int) int {
	block := 0
	for t, p := range point {
		if n := tiling.Dim(t).Levels(); n > 0 {
			leaf, _ := tiling.Dim(t).Locate1D(haar.Index(n, 1, p/2))
			block += leaf * tiling.Stride(t)
		}
	}
	return block
}

// pointInLeaf evaluates a point from its leaf tile: per dimension the tile's
// scaling slot plus the in-tile path details, crossed over dimensions.
func pointInLeaf(tiling *tile.Standard, point []int, data []float64) float64 {
	d := tiling.Dims()
	type sel struct {
		slot   int
		weight float64
	}
	perDim := make([][]sel, d)
	B := tiling.Dim(0).BlockSize()
	for t := 0; t < d; t++ {
		oneD := tiling.Dim(t)
		n := oneD.Levels()
		p := point[t]
		sels := []sel{{slot: 0, weight: 1}} // the tile's scaling slot
		if n > 0 {
			leafBlock, _ := oneD.Locate1D(haar.Index(n, 1, p/2))
			jr, _ := oneD.RootOf(leafBlock)
			for level := jr; level >= 1; level-- {
				idx := haar.Index(n, level, p>>uint(level))
				_, slot := oneD.Locate1D(idx)
				w := 1.0
				if p>>uint(level-1)&1 == 1 {
					w = -1
				}
				sels = append(sels, sel{slot: slot, weight: w})
			}
		}
		perDim[t] = sels
	}
	// Cross product of per-dimension selections, all within this block.
	choice := make([]int, d)
	sum := 0.0
	for {
		w := 1.0
		slot := 0
		for t := 0; t < d; t++ {
			s := perDim[t][choice[t]]
			slot = slot*B + s.slot
			w *= s.weight
		}
		sum += w * data[slot]
		t := d - 1
		for ; t >= 0; t-- {
			choice[t]++
			if choice[t] < len(perDim[t]) {
				break
			}
			choice[t] = 0
		}
		if t < 0 {
			return sum
		}
	}
}

// PointNonStandard answers a point query from a materialized non-standard
// tiled store, reading only the leaf tile (its scaling slot plus the
// quadtree path inside it).
func PointNonStandard(st *tile.Store, point []int) (float64, int, error) {
	tiling, ok := st.Tiling().(*tile.NonStandard)
	if !ok {
		return 0, 0, fmt.Errorf("query: PointNonStandard needs a *NonStandard tiling, got %T", st.Tiling())
	}
	n, rootPos := tiling.RootOf(0)
	d := len(rootPos)
	arrShape, _ := domainShape(st)
	if err := ValidatePoint(arrShape, point); err != nil {
		return 0, 0, err
	}
	if n == 0 {
		data, err := st.ReadTile(0)
		if err != nil {
			return 0, 0, err
		}
		return data[0], 1, nil
	}
	// The leaf tile: the block holding the level-1 details over the point.
	base := 1 << uint(n-1)
	leafCoords := make([]int, d)
	for t := 0; t < d; t++ {
		leafCoords[t] = point[t] / 2
	}
	leafCoords[0] += base
	block, _ := tiling.Locate(leafCoords)
	jr, _ := tiling.RootOf(block)
	data, err := st.ReadTile(block)
	if err != nil {
		return 0, 0, err
	}
	u := data[0] // the tile's root-cell scaling coefficient
	coords := make([]int, d)
	for j := jr; j >= 1; j-- {
		jbase := 1 << uint(n-j)
		for mask := 1; mask < 1<<uint(d); mask++ {
			w := 1.0
			for t := 0; t < d; t++ {
				coords[t] = point[t] >> uint(j)
				if mask>>uint(t)&1 == 1 {
					coords[t] += jbase
					if point[t]>>uint(j-1)&1 == 1 {
						w = -w
					}
				}
			}
			_, slot := tiling.Locate(coords)
			u += w * data[slot]
		}
	}
	return u, 1, nil
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
	return pointBatch(st, shape, points, func(sc *scratch, _ int, p []int, accumulate bool) float64 {
		sc.planStandard(st.Tiling(), shape, p, nil)
		return sc.walkStandard(st.Tiling(), accumulate)
	})
}

// pointBatch validates every point, then answers them with one fetch of the
// union of their blocks: walk names point i's blocks or, once fetched,
// evaluates it.
func pointBatch(st *tile.Store, shape []int, points [][]int, walk func(sc *scratch, i int, p []int, accumulate bool) float64) ([]float64, int, error) {
	for _, p := range points {
		if err := ValidatePoint(shape, p); err != nil {
			return nil, 0, err
		}
	}
	sc := getScratch()
	defer putScratch(sc)
	for i, p := range points {
		walk(sc, i, p, false)
	}
	if err := sc.Fetch(st); err != nil {
		return nil, 0, err
	}
	out := make([]float64, len(points))
	for i, p := range points {
		out[i] = walk(sc, i, p, true)
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
	return pointBatch(st, tiling.Domain(), points, func(sc *scratch, i int, p []int, accumulate bool) float64 {
		if !accumulate {
			sc.planNonStandard(tiling, p, sc.ones(len(p)))
			return 0
		}
		return sc.foldNonStandard(tiling, sc.queries[i])
	})
}
