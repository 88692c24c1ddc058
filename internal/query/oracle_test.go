package query

import (
	"fmt"

	"github.com/shiftsplit/shiftsplit/internal/tile"
	"github.com/shiftsplit/shiftsplit/internal/wavelet"
)

// The kernels as they were before the plan/fetch/accumulate rewrite, kept
// as oracles: a coefficient list per query, a keyed tile.Reader lookup per
// coefficient, and a recursive quadtree descent for the non-standard form.
// The property tests hold the new kernels to these on value and on the
// number of blocks read.

// oldPointViaRootPath answers a point query by reading the full Lemma-1
// coefficient cross product through whatever tiling the store uses — the
// strategy available without the stored scaling coefficients. The returned
// count is the number of distinct blocks read, which is what the tiling
// ablation compares.
func oldPointViaRootPath(st *tile.Store, shape, point []int) (float64, int, error) {
	if err := ValidatePoint(shape, point); err != nil {
		return 0, 0, err
	}
	reader := tile.NewReader(st)
	coefs := wavelet.PointPathStandard(shape, point)
	if err := preload(st, reader, coefs); err != nil {
		return 0, reader.BlocksRead(), err
	}
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

// preload batch-loads the distinct blocks a coefficient set touches with
// one vectored read. The set — hence BlocksRead — is identical to what the
// per-coefficient loop would load one block at a time.
func preload(st *tile.Store, reader *tile.Reader, coefs []wavelet.Coef) error {
	blocks := make([]int, len(coefs))
	for i, c := range coefs {
		blocks[i], _ = st.Tiling().Locate(c.Coords)
	}
	return reader.Preload(blocks)
}

// oldRangeSumStandard answers a box aggregate over [start, start+shape) by
// combining the Lemma-2 coefficient set through the store, returning the
// sum and the number of distinct blocks read.
func oldRangeSumStandard(st *tile.Store, arrShape, start, shape []int) (float64, int, error) {
	if err := ValidateBox(arrShape, start, shape); err != nil {
		return 0, 0, err
	}
	reader := tile.NewReader(st)
	coefs := wavelet.RangeSumCoefsStandard(arrShape, start, shape)
	if err := preload(st, reader, coefs); err != nil {
		return 0, reader.BlocksRead(), err
	}
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
	reader := tile.NewReader(st)
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
	reader := tile.NewReader(st)
	out := make([]float64, len(points))
	paths := make([][]wavelet.Coef, len(points))
	var all []wavelet.Coef
	for i, p := range points {
		if err := ValidatePoint(shape, p); err != nil {
			return nil, reader.BlocksRead(), err
		}
		paths[i] = wavelet.PointPathStandard(shape, p)
		all = append(all, paths[i]...)
	}
	if err := preload(st, reader, all); err != nil {
		return nil, reader.BlocksRead(), err
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
