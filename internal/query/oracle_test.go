package query

import (
	"fmt"
	"math"
	"sort"

	"github.com/shiftsplit/shiftsplit/internal/bitutil"
	"github.com/shiftsplit/shiftsplit/internal/haar"
	"github.com/shiftsplit/shiftsplit/internal/tile"
	"github.com/shiftsplit/shiftsplit/internal/wavelet"
)

// The kernels as they were before the plan/fetch/accumulate rewrite, kept
// as oracles: a coefficient list per query, a keyed reader lookup per
// coefficient, and a recursive quadtree descent for the non-standard form.
// The property tests hold the new kernels to these on value and on the
// number of blocks read.

// reader is the coefficient reader the kernels replaced: a block cache
// keyed by id, one Locate and one lookup per coefficient, one ReadTile per
// block on first touch.
type reader struct {
	st    *tile.Store
	cache map[int][]float64
}

func newReader(st *tile.Store) *reader {
	return &reader{st: st, cache: make(map[int][]float64)}
}

func (r *reader) Get(coords []int) (float64, error) {
	block, slot := r.st.Tiling().Locate(coords)
	data, ok := r.cache[block]
	if !ok {
		var err error
		if data, err = r.st.ReadTile(block); err != nil {
			return 0, err
		}
		r.cache[block] = data
	}
	return data[slot], nil
}

// BlocksRead returns the number of distinct blocks loaded so far.
func (r *reader) BlocksRead() int { return len(r.cache) }

// oldPointViaRootPath answers a point query by reading the full Lemma-1
// coefficient cross product through whatever tiling the store uses — the
// strategy available without the stored scaling coefficients. The returned
// count is the number of distinct blocks read, which is what the tiling
// ablation compares.
func oldPointViaRootPath(st *tile.Store, shape, point []int) (float64, int, error) {
	if err := ValidatePoint(shape, point); err != nil {
		return 0, 0, err
	}
	reader := newReader(st)
	coefs := wavelet.PointPathStandard(shape, point)
	sum := 0.0
	for _, c := range coefs {
		v, err := reader.Get(c.Coords)
		if err != nil {
			return 0, reader.BlocksRead(), err
		}
		sum += c.Weight * v
	}
	return sum, reader.BlocksRead(), nil
}

// oldRangeSumStandard answers a box aggregate over [start, start+shape) by
// combining the Lemma-2 coefficient set through the store, returning the
// sum and the number of distinct blocks read.
func oldRangeSumStandard(st *tile.Store, arrShape, start, shape []int) (float64, int, error) {
	if err := ValidateBox(arrShape, start, shape); err != nil {
		return 0, 0, err
	}
	reader := newReader(st)
	coefs := wavelet.RangeSumCoefsStandard(arrShape, start, shape)
	sum := 0.0
	for _, c := range coefs {
		v, err := reader.Get(c.Coords)
		if err != nil {
			return 0, reader.BlocksRead(), err
		}
		sum += c.Weight * v
	}
	return sum, reader.BlocksRead(), nil
}

// oldRangeSumNonStandard answers a box aggregate from a non-standard tiled
// store by quadtree descent (fully covered cells contribute average times
// volume), reading blocks through a cache.
func oldRangeSumNonStandard(st *tile.Store, start, shape []int) (float64, int, error) {
	tiling, ok := st.Tiling().(*tile.NonStandard)
	if !ok {
		return 0, 0, fmt.Errorf("query: RangeSumNonStandard needs a *NonStandard tiling, got %T", st.Tiling())
	}
	n, rootPos := tiling.RootOf(0)
	d := len(rootPos)
	arrShape, _ := domainShape(st)
	if err := ValidateBox(arrShape, start, shape); err != nil {
		return 0, 0, err
	}
	reader := newReader(st)
	end := make([]int, d)
	for i := range start {
		end[i] = start[i] + shape[i]
	}
	origin := make([]int, d)
	rootAvg, err := reader.Get(origin)
	if err != nil {
		return 0, reader.BlocksRead(), err
	}
	coords := make([]int, d)
	var descend func(j int, cell []int, u float64) (float64, error)
	descend = func(j int, cell []int, u float64) (float64, error) {
		size := 1 << uint(j)
		fullyIn, disjoint := true, false
		for i := 0; i < d; i++ {
			lo, hi := cell[i]*size, (cell[i]+1)*size
			if hi <= start[i] || lo >= end[i] {
				disjoint = true
				break
			}
			if lo < start[i] || hi > end[i] {
				fullyIn = false
			}
		}
		if disjoint {
			return 0, nil
		}
		if fullyIn {
			vol := 1.0
			for i := 0; i < d; i++ {
				vol *= float64(size)
			}
			return u * vol, nil
		}
		base := 1 << uint(n-j)
		details := make([]float64, 1<<uint(d))
		for mask := 1; mask < 1<<uint(d); mask++ {
			for i := 0; i < d; i++ {
				coords[i] = cell[i]
				if mask>>uint(i)&1 == 1 {
					coords[i] += base
				}
			}
			v, err := reader.Get(coords)
			if err != nil {
				return 0, err
			}
			details[mask] = v
		}
		sum := 0.0
		child := make([]int, d)
		for q := 0; q < 1<<uint(d); q++ {
			cu := u
			for mask := 1; mask < 1<<uint(d); mask++ {
				w := 1.0
				for i := 0; i < d; i++ {
					if mask>>uint(i)&1 == 1 && q>>uint(i)&1 == 1 {
						w = -w
					}
				}
				cu += w * details[mask]
			}
			for i := 0; i < d; i++ {
				child[i] = 2*cell[i] + q>>uint(i)&1
			}
			part, err := descend(j-1, child, cu)
			if err != nil {
				return 0, err
			}
			sum += part
		}
		return sum, nil
	}
	rootCell := make([]int, d)
	sum, err := descend(n, rootCell, rootAvg)
	return sum, reader.BlocksRead(), err
}

// oldPointBatch answers many point queries against a standard-form tiled store
// with one shared block cache, returning the values and the number of
// distinct blocks read for the whole batch. Batching amortizes the shared
// upper-tree tiles across queries — the access-pattern benefit the tiling
// was designed for.
func oldPointBatch(st *tile.Store, shape []int, points [][]int) ([]float64, int, error) {
	reader := newReader(st)
	out := make([]float64, len(points))
	paths := make([][]wavelet.Coef, len(points))
	for i, p := range points {
		if err := ValidatePoint(shape, p); err != nil {
			return nil, reader.BlocksRead(), err
		}
		paths[i] = wavelet.PointPathStandard(shape, p)
	}
	for i := range points {
		sum := 0.0
		for _, c := range paths[i] {
			v, err := reader.Get(c.Coords)
			if err != nil {
				return nil, reader.BlocksRead(), err
			}
			sum += c.Weight * v
		}
		out[i] = sum
	}
	return out, reader.BlocksRead(), nil
}

// oldProgressiveRangeSum is the progressive walk before it was planned: the
// comparator recomputes support volumes, and each coefficient is read
// through the reader as the walk reaches it.
func oldProgressiveRangeSum(st *tile.Store, arrShape, start, shape []int) ([]ProgressiveStep, error) {
	if err := ValidateBox(arrShape, start, shape); err != nil {
		return nil, err
	}
	coefs := wavelet.RangeSumCoefsStandard(arrShape, start, shape)
	vol := func(c wavelet.Coef) int {
		v := 1
		for t, idx := range c.Coords {
			v *= haar.Support(bitutil.Log2(arrShape[t]), idx).Len()
		}
		return v
	}
	sort.SliceStable(coefs, func(i, j int) bool {
		vi, vj := vol(coefs[i]), vol(coefs[j])
		if vi != vj {
			return vi > vj
		}
		return math.Abs(coefs[i].Weight) > math.Abs(coefs[j].Weight)
	})
	reader := newReader(st)
	var steps []ProgressiveStep
	sum := 0.0
	for i, c := range coefs {
		v, err := reader.Get(c.Coords)
		if err != nil {
			return nil, err
		}
		sum += c.Weight * v
		steps = append(steps, ProgressiveStep{Estimate: sum, Coefficients: i + 1, Blocks: reader.BlocksRead()})
	}
	return steps, nil
}

// oldPointBatchNonStandard is the non-standard batch as the facade ran it
// before the batch kernel: one reader shared across per-point quadtree
// walks from the overall average down.
func oldPointBatchNonStandard(st *tile.Store, shape []int, points [][]int) ([]float64, int, error) {
	out := make([]float64, len(points))
	reader := newReader(st)
	n := bitutil.Log2(shape[0])
	d := len(shape)
	origin := make([]int, d)
	coords := make([]int, d)
	for i, p := range points {
		u, err := reader.Get(origin)
		if err != nil {
			return nil, reader.BlocksRead(), err
		}
		for j := n; j >= 1; j-- {
			base := 1 << uint(n-j)
			for mask := 1; mask < 1<<uint(d); mask++ {
				w := 1.0
				for t := 0; t < d; t++ {
					coords[t] = p[t] >> uint(j)
					if mask>>uint(t)&1 == 1 {
						coords[t] += base
						if p[t]>>uint(j-1)&1 == 1 {
							w = -w
						}
					}
				}
				v, err := reader.Get(coords)
				if err != nil {
					return nil, reader.BlocksRead(), err
				}
				u += w * v
			}
		}
		out[i] = u
	}
	return out, reader.BlocksRead(), nil
}

// oldPointStandard is the single-block standard point as it was before it
// moved onto the pooled arena: a ReadTile of the leaf and per-dimension
// selection slices crossed over dimensions.
func oldPointStandard(st *tile.Store, point []int) (float64, error) {
	tiling := st.Tiling().(*tile.Standard)
	block := 0
	for t, p := range point {
		if n := tiling.Dim(t).Levels(); n > 0 {
			leaf, _ := tiling.Dim(t).Locate1D(haar.Index(n, 1, p/2))
			block += leaf * tiling.Stride(t)
		}
	}
	data, err := st.ReadTile(block)
	if err != nil {
		return 0, err
	}
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
		sels := []sel{{slot: 0, weight: 1}}
		if n > 0 {
			leafBlock, _ := oneD.Locate1D(haar.Index(n, 1, p/2))
			jr, _ := oneD.RootOf(leafBlock)
			for level := jr; level >= 1; level-- {
				_, slot := oneD.Locate1D(haar.Index(n, level, p>>uint(level)))
				w := 1.0
				if p>>uint(level-1)&1 == 1 {
					w = -1
				}
				sels = append(sels, sel{slot: slot, weight: w})
			}
		}
		perDim[t] = sels
	}
	choice := make([]int, d)
	sum := 0.0
	for {
		w, slot := 1.0, 0
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
			return sum, nil
		}
	}
}

// oldPointNonStandard is the single-block non-standard point as it was: a
// Locate of the leaf, a ReadTile, and a Locate per path detail.
func oldPointNonStandard(st *tile.Store, point []int) (float64, error) {
	tiling := st.Tiling().(*tile.NonStandard)
	n, rootPos := tiling.RootOf(0)
	d := len(rootPos)
	if n == 0 {
		data, err := st.ReadTile(0)
		if err != nil {
			return 0, err
		}
		return data[0], nil
	}
	leafCoords := make([]int, d)
	for t := 0; t < d; t++ {
		leafCoords[t] = point[t] / 2
	}
	leafCoords[0] += 1 << uint(n-1)
	block, _ := tiling.Locate(leafCoords)
	jr, _ := tiling.RootOf(block)
	data, err := st.ReadTile(block)
	if err != nil {
		return 0, err
	}
	u := data[0]
	coords := make([]int, d)
	for j := jr; j >= 1; j-- {
		for mask := 1; mask < 1<<uint(d); mask++ {
			w := 1.0
			for t := 0; t < d; t++ {
				coords[t] = point[t] >> uint(j)
				if mask>>uint(t)&1 == 1 {
					coords[t] += 1 << uint(n-j)
					if point[t]>>uint(j-1)&1 == 1 {
						w = -w
					}
				}
			}
			_, slot := tiling.Locate(coords)
			u += w * data[slot]
		}
	}
	return u, nil
}
