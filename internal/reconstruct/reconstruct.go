// Package reconstruct implements partial reconstruction from wavelet
// transforms (paper §5.4, Result 6): extracting a region of the original
// data directly from tiled, disk-resident coefficients using the inverses
// of SHIFT (index translation) and SPLIT (root-path scaling descent),
// without decomposing the entire dataset.
//
// Every extraction is planned whole, its blocks fetched with one vectored
// read (tile.FetchSet) and the region accumulated from the fetched frames,
// so the dyadic pieces of a box pay once for the tiles they share. One
// naive baseline is included for the comparison the paper motivates:
// cell-by-cell point reconstruction.
package reconstruct

import (
	"fmt"
	"slices"

	"github.com/shiftsplit/shiftsplit/internal/bitutil"
	"github.com/shiftsplit/shiftsplit/internal/core"
	"github.com/shiftsplit/shiftsplit/internal/dyadic"
	"github.com/shiftsplit/shiftsplit/internal/haar"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/query"
	"github.com/shiftsplit/shiftsplit/internal/tile"
	"github.com/shiftsplit/shiftsplit/internal/wavelet"
)

// shapeOf recovers the transform shape from a store's tiling.
func shapeOf(st *tile.Store) ([]int, error) {
	switch tl := st.Tiling().(type) {
	case *tile.Standard:
		return tl.Domain(), nil
	case *tile.Sequential:
		return tl.Shape(), nil
	default:
		return nil, fmt.Errorf("reconstruct: unsupported tiling %T", st.Tiling())
	}
}

// DyadicStandard extracts the original contents of a dyadic block from a
// standard-form tiled transform via inverse SHIFT-SPLIT: it is the box of
// one piece. It returns the block values and the number of distinct blocks
// read.
func DyadicStandard(st *tile.Store, block dyadic.Range) (*ndarray.Array, int, error) {
	return Box(st, block.Start(), block.Shape())
}

// Box extracts an arbitrary half-open box [start, start+shape) from a
// standard-form tiled transform. An arbitrary selection range is a
// collection of dyadic ranges (§5.4): per dimension the box decomposes into
// dyadic pieces, and each piece needs Result 6's list, the root path of its
// average (the inverse SPLIT) and its shifted details (the inverse SHIFT).
// The box's pieces are the cross product of the per-dimension ones, so the
// coefficients they need together are the cross product of the
// per-dimension unions. That product is fetched once; then, one dimension
// at a time, each piece folds its path into index 0, takes its details in
// place and runs the 1-d inverse, which leaves the box's cells.
func Box(st *tile.Store, start, shape []int) (*ndarray.Array, int, error) {
	return Band(st, start, shape, -1)
}

// Band is Box with dimension sum summed out (none if sum is -1), leaving
// one cell along it: start[sum] is 0 and shape[sum] 1. The N cells along a
// dimension sum to N times their average, its coefficient 0, so sum's plan
// is that one coefficient with weight N: the transform's index-0 face.
func Band(st *tile.Store, start, shape []int, sum int) (*ndarray.Array, int, error) {
	arrShape, err := shapeOf(st)
	if err != nil {
		return nil, 0, err
	}
	d := len(arrShape)
	if len(start) != d || len(shape) != d {
		return nil, 0, fmt.Errorf("reconstruct: box %v+%v for %d dims", start, shape, d)
	}
	axes := make([]axisPlan, d)
	for t := range axes {
		if start[t] < 0 || shape[t] <= 0 || start[t] > arrShape[t]-shape[t] || (t == sum && start[t]+shape[t] != 1) {
			return nil, 0, fmt.Errorf("reconstruct: box %v+%v out of bounds %v", start, shape, arrShape)
		}
		if t == sum {
			whole := []core.Target{{Index: 0, Weight: float64(arrShape[t])}}
			axes[t] = axisPlan{idx: []int{0}, pieces: []piece{{path: whole, src: []int{0}}}}
			continue
		}
		axes[t] = planAxis(bitutil.Log2(arrShape[t]), start[t], start[t]+shape[t])
	}
	g, blocks, err := gather(st, axes)
	if err != nil {
		return nil, 0, err
	}
	for t := range axes {
		g = axes[t].apply(g, t, axes, shape)
	}
	return ndarray.FromSlice(g, shape...), blocks, nil
}

// axisPlan is one dimension of a standard-form extraction: idx, the union
// of its pieces' lists as ascending coefficient indices, and the pieces.
type axisPlan struct {
	idx    []int
	pieces []piece
}

// piece is one dyadic piece of an axis, as positions in its axis's idx: the
// scaling path with its ±1 weights, and src[i], the i-th shifted detail of
// the piece's 2^m-point transform (src[0] is unused).
type piece struct {
	path []core.Target
	src  []int
}

// planAxis lists the pieces of [s, e) in a dimension of 2^n points.
func planAxis(n, s, e int) axisPlan {
	var a axisPlan
	for _, iv := range dyadic.Decompose(s, e) {
		p := piece{path: core.ScalingPath1D(n, iv.Level, iv.Pos), src: make([]int, iv.Len())}
		for _, c := range p.path {
			a.idx = append(a.idx, c.Index)
		}
		for i := 1; i < len(p.src); i++ {
			p.src[i] = core.ShiftIndex(n, iv.Level, iv.Pos, i)
			a.idx = append(a.idx, p.src[i])
		}
		a.pieces = append(a.pieces, p)
	}
	slices.Sort(a.idx)
	a.idx = slices.Compact(a.idx)
	at := func(index int) int {
		i, _ := slices.BinarySearch(a.idx, index)
		return i
	}
	for _, p := range a.pieces {
		for k := range p.path {
			p.path[k].Index = at(p.path[k].Index)
		}
		for i := 1; i < len(p.src); i++ {
			p.src[i] = at(p.src[i])
		}
	}
	return a
}

// gather fetches the cross product of the axes' unions with one vectored
// read and returns it row-major, with the number of blocks read: the plan
// names the blocks, and each block's share of the product lands at the
// positions its entries' source tags give.
func gather(st *tile.Store, axes []axisPlan) ([]float64, int, error) {
	var p tile.Plan
	p.Reset(st.Tiling())
	size := 1
	for _, a := range axes {
		p.Union(a.idx)
		size *= len(a.idx)
	}
	var fs tile.FetchSet
	for p.Next() {
		block, _ := p.Block()
		fs.Want(block)
	}
	if err := fs.Fetch(st); err != nil {
		return nil, 0, err
	}
	g := make([]float64, size)
	for p.Next() {
		block, _ := p.Block()
		frame := fs.Frame(block)
		p.EachCoef(func(slot int, pick []tile.PlanEntry) {
			off := 0
			for t, e := range pick {
				off = off*len(axes[t].idx) + e.Src
			}
			g[off] = frame[slot]
		})
	}
	return g, fs.Len(), nil
}

// apply maps axis t of g from the union's length to the box's extent: per
// line along t, each piece folds its scaling path into index 0, copies its
// shifted details and inverts its 2^m-point transform into its cells. Axes
// before t already hold cells, axes after t still the union.
func (a *axisPlan) apply(g []float64, t int, axes []axisPlan, shape []int) []float64 {
	outer, inner := 1, 1
	for u := range axes {
		switch {
		case u < t:
			outer *= shape[u]
		case u > t:
			inner *= len(axes[u].idx)
		}
	}
	n, extent := len(a.idx), shape[t]
	out := make([]float64, outer*extent*inner)
	line, cells := make([]float64, n), make([]float64, extent)
	hat, aux := make([]float64, extent), make([]float64, extent/2+1)
	for o := 0; o < outer; o++ {
		for r := 0; r < inner; r++ {
			for i := range line {
				line[i] = g[(o*n+i)*inner+r]
			}
			at := 0
			for _, p := range a.pieces {
				h := hat[:len(p.src)]
				h[0] = 0
				for _, c := range p.path {
					h[0] += c.Weight * line[c.Index]
				}
				for i := 1; i < len(h); i++ {
					h[i] = line[p.src[i]]
				}
				haar.InverseInto(cells[at:at+len(h)], h, aux)
				at += len(h)
			}
			for e, v := range cells {
				out[(o*extent+e)*inner+r] = v
			}
		}
	}
	return out
}

// NaivePointwise reconstructs the box cell by cell from per-point root
// paths — the other horn of §5.4's dilemma, preferable only for tiny
// regions. The paths of all cells are fetched together, so the count is the
// distinct blocks under them.
func NaivePointwise(st *tile.Store, start, shape []int) (*ndarray.Array, int, error) {
	arrShape, err := shapeOf(st)
	if err != nil {
		return nil, 0, err
	}
	out := ndarray.New(shape...)
	points := make([][]int, 0, out.Size())
	out.Each(func(coords []int, _ float64) {
		p := make([]int, len(coords))
		for t, c := range coords {
			p[t] = start[t] + c
		}
		points = append(points, p)
	})
	vals, blocks, err := query.PointBatch(st, arrShape, points)
	if err != nil {
		return nil, 0, err
	}
	copy(out.Data(), vals)
	return out, blocks, nil
}

// BoxNonStandard extracts an arbitrary half-open box from a non-standard
// tiled transform. Arbitrary multidimensional ranges "can always be seen as
// a collection of cubic intervals" (paper §4.1): the box is decomposed into
// dyadic runs per dimension and every cross piece is split into cubes of
// its smallest edge. One plan pass names the blocks of every cube's shift
// and split coefficients, one fetch reads them, and an accumulate pass lays
// out each cube's transform and inverts it.
func BoxNonStandard(st *tile.Store, start, shape []int) (*ndarray.Array, int, error) {
	tl, ok := st.Tiling().(*tile.NonStandard)
	if !ok {
		return nil, 0, fmt.Errorf("reconstruct: store is not non-standard tiled (%T)", st.Tiling())
	}
	n, rootPos := tl.RootOf(0)
	d := len(rootPos)
	if len(start) != d || len(shape) != d {
		return nil, 0, fmt.Errorf("reconstruct: box %v+%v for %d dims", start, shape, d)
	}
	edge := 1 << uint(n)
	perDim := make([][]dyadic.Interval, d)
	for t := 0; t < d; t++ {
		if start[t] < 0 || shape[t] <= 0 || start[t]+shape[t] > edge {
			return nil, 0, fmt.Errorf("reconstruct: box %v+%v out of bounds", start, shape)
		}
		perDim[t] = dyadic.Decompose(start[t], start[t]+shape[t])
	}
	var p tile.NonStdPlan
	var fs tile.FetchSet
	fs.Want(0)
	cubes := splitCubes(perDim, n)
	for _, c := range cubes {
		p.Cube(tl, c.m, c.pos, 1, n)
		for p.Next() {
			fs.Want(p.Block())
		}
	}
	if err := fs.Fetch(st); err != nil {
		return nil, 0, err
	}
	out := ndarray.New(shape...)
	dst, side := make([]int, d), make([]int, d)
	scratch, step := wavelet.NewScratch(), 1<<uint(d)-1
	var hat *ndarray.Array // every cell is rewritten, so cubes of one size share it
	for _, c := range cubes {
		for t := range side {
			side[t] = 1 << uint(c.m)
			dst[t] = c.pos[t]<<uint(c.m) - start[t]
		}
		if hat == nil || hat.Extent(0) != side[0] {
			hat = ndarray.New(side...)
		}
		// Lay the cube's coefficients out as its own transform: FoldPath
		// folds its path into the scaling coefficient from the overall
		// average down (the inverse SPLIT), Runs copies its subtree's
		// details to their Mallat positions (the inverse SHIFT).
		h := hat.Data()
		h[0] = fs.Frame(0)[0]
		p.Cube(tl, c.m, c.pos, 1, n)
		for p.Next() {
			frame := fs.Frame(p.Block())
			h[0] = p.FoldPath(h[0], frame)
			hi, low := p.Levels()
			for j := min(hi, c.m); j >= low; j-- {
				p.Runs(j, func(slot, src, k int) {
					for i := src; i < src+k; i++ {
						h[i] = frame[slot]
						slot += step
					}
				})
			}
		}
		wavelet.InverseNonStandardInPlace(hat, scratch)
		out.SubPaste(hat, dst)
	}
	return out, fs.Len(), nil
}

// DyadicNonStandard extracts the original contents of the cubic block at
// level m, position pos, from a non-standard tiled transform: the box of
// one cube.
func DyadicNonStandard(st *tile.Store, m int, pos []int) (*ndarray.Array, int, error) {
	start, shape := make([]int, len(pos)), make([]int, len(pos))
	for t, p := range pos {
		start[t], shape[t] = p<<uint(m), 1<<uint(m)
	}
	return BoxNonStandard(st, start, shape)
}

// cube is a cubic dyadic block: level m, position pos in block units.
type cube struct {
	m   int
	pos []int
}

// splitCubes lists the cubes of a box given its dyadic runs per dimension:
// every cross piece split into cubes of its smallest edge.
func splitCubes(perDim [][]dyadic.Interval, n int) []cube {
	d := len(perDim)
	var out []cube
	idx, runs, counts := make([]int, d), make([]int, d), make([]int, d)
	for t, ivs := range perDim {
		runs[t] = len(ivs)
	}
	for {
		m := n
		for t, i := range idx {
			m = bitutil.Min(m, perDim[t][i].Level)
		}
		for t, i := range idx {
			counts[t] = 1 << uint(perDim[t][i].Level-m)
		}
		for off := make([]int, d); ; {
			pos := make([]int, d)
			for t, i := range idx {
				pos[t] = perDim[t][i].Pos<<uint(perDim[t][i].Level-m) + off[t]
			}
			out = append(out, cube{m: m, pos: pos})
			if !step(off, counts) {
				break
			}
		}
		if !step(idx, runs) {
			return out
		}
	}
}

// step advances the odometer idx over [0, limit), last position fastest,
// and reports false after the last combination, with idx back at zero.
func step(idx, limit []int) bool {
	for t := len(idx) - 1; t >= 0; t-- {
		idx[t]++
		if idx[t] < limit[t] {
			return true
		}
		idx[t] = 0
	}
	return false
}
