package reconstruct

import (
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/core"
	"github.com/shiftsplit/shiftsplit/internal/dyadic"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/tile"
	"github.com/shiftsplit/shiftsplit/internal/wavelet"
)

// reader is how extraction read coefficients before it was planned, kept as
// the oracle: a block cache keyed by id, one Locate and one lookup per
// coefficient, one ReadTile per block on first touch.
type reader struct {
	t     testing.TB
	st    *tile.Store
	cache map[int][]float64
}

func newReader(t testing.TB, st *tile.Store) *reader {
	return &reader{t: t, st: st, cache: make(map[int][]float64)}
}

func (r *reader) get(coords []int) float64 {
	block, slot := r.st.Tiling().Locate(coords)
	data, ok := r.cache[block]
	if !ok {
		var err error
		if data, err = r.st.ReadTile(block); err != nil {
			r.t.Fatal(err)
		}
		r.cache[block] = data
	}
	return data[slot]
}

// naiveFull reads the whole transform through the reader, inverts it and
// slices out the box: the "decompose everything" horn of §5.4's dilemma,
// which reads every block.
func naiveFull(t testing.TB, st *tile.Store, start, shape []int) (*ndarray.Array, int, error) {
	form, domain := wavelet.Standard, []int(nil)
	switch tl := st.Tiling().(type) {
	case *tile.NonStandard:
		form, domain = wavelet.NonStandard, tl.Domain()
	default:
		var err error
		if domain, err = shapeOf(st); err != nil {
			return nil, 0, err
		}
	}
	r := newReader(t, st)
	hat := ndarray.New(domain...)
	hat.Each(func(coords []int, _ float64) { hat.Set(r.get(coords), coords...) })
	return wavelet.Inverse(hat, form).SubCopy(start, shape), len(r.cache), nil
}

// pieceCounts returns the number of dyadic pieces of a box (cubes in the
// non-standard form), what its extraction read before it was planned — a
// fresh reader per piece, the counts summed — and the distinct blocks of
// all pieces together. Each piece touches every coefficient its SHIFT and
// SPLIT embedding names.
func pieceCounts(t testing.TB, st *tile.Store, start, shape []int) (pieces, sum, union int) {
	all := newReader(t, st)
	touch := func(each func(visit func(coords []int, _ float64))) {
		r := newReader(t, st)
		each(func(coords []int, _ float64) {
			r.get(coords)
			all.get(coords)
		})
		pieces++
		sum += len(r.cache)
	}
	perDim := make([][]dyadic.Interval, len(start))
	for i := range perDim {
		perDim[i] = dyadic.Decompose(start[i], start[i]+shape[i])
	}
	if tl, ok := st.Tiling().(*tile.NonStandard); ok {
		n, _ := tl.RootOf(0)
		for _, c := range splitCubes(perDim, n) {
			touch(func(visit func([]int, float64)) {
				edge := make([]int, len(c.pos))
				for i := range edge {
					edge[i] = 1 << uint(c.m)
				}
				core.EachShiftNonStandard(tl.Domain(), c.m, c.pos, ndarray.New(edge...), visit)
				core.EachSplitNonStandard(tl.Domain(), c.m, c.pos, 0, visit)
			})
		}
		return pieces, sum, len(all.cache)
	}
	domain, err := shapeOf(st)
	if err != nil {
		t.Fatal(err)
	}
	idx, runs := make([]int, len(start)), make([]int, len(start))
	for i, ivs := range perDim {
		runs[i] = len(ivs)
	}
	for {
		block := make(dyadic.Range, len(start))
		for i := range block {
			block[i] = perDim[i][idx[i]]
		}
		touch(func(visit func([]int, float64)) {
			core.EachEmbedStandard(domain, block, ndarray.New(block.Shape()...), visit)
		})
		if !step(idx, runs) {
			return pieces, sum, len(all.cache)
		}
	}
}
