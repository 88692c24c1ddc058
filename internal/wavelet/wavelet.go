// Package wavelet implements the two multidimensional Haar decompositions
// used in the paper (§2.1, Appendix B):
//
//   - the standard form, obtained by running the complete one-dimensional
//     transform along each dimension in turn; and
//   - the non-standard form, which after each level of pairwise
//     averaging/differencing along all dimensions recurses only into the
//     hypercube of averages.
//
// Both forms store coefficients in the Mallat subband layout, which for one
// dimension coincides with the error-tree order of package haar: the
// coefficient with per-dimension 1-d index (i_1, ..., i_d) lives at those
// array coordinates. For the non-standard form the detail coefficient of
// level j, subband e in {0,1}^d \ {0}, translation p has coordinate
// e_i*2^(n-j) + p_i in dimension i, and the overall average sits at the
// origin.
package wavelet

import (
	"fmt"

	"github.com/shiftsplit/shiftsplit/internal/bitutil"
	"github.com/shiftsplit/shiftsplit/internal/haar"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
)

// Form selects one of the two multidimensional decompositions.
type Form int

const (
	// Standard applies a complete 1-d transform per dimension.
	Standard Form = iota
	// NonStandard alternates dimensions level by level.
	NonStandard
)

// String names the form.
func (f Form) String() string {
	switch f {
	case Standard:
		return "standard"
	case NonStandard:
		return "non-standard"
	default:
		return fmt.Sprintf("Form(%d)", int(f))
	}
}

// Transform decomposes a into the requested form. The input is unchanged.
func Transform(a *ndarray.Array, form Form) *ndarray.Array {
	switch form {
	case Standard:
		return TransformStandard(a)
	case NonStandard:
		return TransformNonStandard(a)
	default:
		panic(fmt.Sprintf("wavelet: unknown form %d", int(form)))
	}
}

// Inverse reconstructs the original array from a transform of either form.
func Inverse(hat *ndarray.Array, form Form) *ndarray.Array {
	switch form {
	case Standard:
		return InverseStandard(hat)
	case NonStandard:
		return InverseNonStandard(hat)
	default:
		panic(fmt.Sprintf("wavelet: unknown form %d", int(form)))
	}
}

func checkShape(a *ndarray.Array, cubic bool) {
	shape := a.Shape()
	if len(shape) == 0 {
		panic("wavelet: zero-dimensional array")
	}
	for _, s := range shape {
		if !bitutil.IsPow2(s) {
			panic(fmt.Sprintf("wavelet: extent %d in shape %v is not a power of two", s, shape))
		}
	}
	if cubic {
		for _, s := range shape[1:] {
			if s != shape[0] {
				panic(fmt.Sprintf("wavelet: non-standard form requires a cubic array, got %v", shape))
			}
		}
	}
}

// Scratch holds the reusable working buffers of the in-place transforms so
// the maintenance engines can transform one chunk after another without
// per-chunk (or per-fiber) allocation. A Scratch grows on demand, is cheap
// when zero-valued, and must not be shared between concurrent transforms.
type Scratch struct {
	line  []float64
	fiber []float64
	aux   []float64
	dims  []int
}

// NewScratch returns an empty scratch; the first transform sizes it.
func NewScratch() *Scratch { return &Scratch{} }

// ensure grows the buffers to cover extents up to maxExtent in d dimensions.
func (s *Scratch) ensure(maxExtent, d int) {
	if cap(s.line) < maxExtent {
		s.line = make([]float64, maxExtent)
		s.fiber = make([]float64, maxExtent)
		s.aux = make([]float64, maxExtent/2+1)
	}
	if cap(s.dims) < d {
		s.dims = make([]int, d)
	}
}

// TransformStandard computes the standard-form decomposition: a complete 1-d
// Haar transform along every dimension. Extents may differ but must each be
// a power of two. The input is unchanged.
func TransformStandard(a *ndarray.Array) *ndarray.Array {
	out := a.Clone()
	TransformStandardInPlace(out, NewScratch())
	return out
}

// TransformStandardInPlace overwrites a with its standard-form decomposition
// using the caller's scratch. It performs the identical floating-point
// operations in the identical order as TransformStandard, so results are
// bit-equal; it just never allocates past the scratch's high-water mark.
func TransformStandardInPlace(a *ndarray.Array, s *Scratch) {
	stdPasses(a, s, false)
}

// InverseStandard reconstructs the original array from a standard transform.
func InverseStandard(hat *ndarray.Array) *ndarray.Array {
	out := hat.Clone()
	InverseStandardInPlace(out, NewScratch())
	return out
}

// InverseStandardInPlace overwrites hat with its reconstruction (see
// TransformStandardInPlace for the scratch contract).
func InverseStandardInPlace(hat *ndarray.Array, s *Scratch) {
	stdPasses(hat, s, true)
}

// stdPasses runs the per-dimension complete 1-d transforms (or their
// inverses, in reversed dimension order) in place. Innermost-dimension
// fibers are contiguous and transform with zero copying; strided fibers
// gather into the scratch and scatter back.
func stdPasses(a *ndarray.Array, s *Scratch, inverse bool) {
	checkShape(a, false)
	maxExtent := 0
	for dim := 0; dim < a.Dims(); dim++ {
		if e := a.Extent(dim); e > maxExtent {
			maxExtent = e
		}
	}
	s.ensure(maxExtent, a.Dims())
	data := a.Data()
	pass := func(dim int) {
		e := a.Extent(dim)
		a.EachFiber(dim, func(fixed []int) {
			base, stride, _ := a.FiberSpan(dim, fixed)
			src := s.fiber[:e]
			if stride == 1 {
				src = data[base : base+e]
			} else {
				for i := 0; i < e; i++ {
					src[i] = data[base+i*stride]
				}
			}
			if inverse {
				haar.InverseInto(s.line[:e], src, s.aux)
			} else {
				haar.TransformInto(s.line[:e], src, s.aux)
			}
			if stride == 1 {
				copy(data[base:base+e], s.line[:e])
			} else {
				for i := 0; i < e; i++ {
					data[base+i*stride] = s.line[i]
				}
			}
		})
	}
	if inverse {
		for dim := a.Dims() - 1; dim >= 0; dim-- {
			pass(dim)
		}
	} else {
		for dim := 0; dim < a.Dims(); dim++ {
			pass(dim)
		}
	}
}

// TransformNonStandard computes the non-standard decomposition of a cubic
// array whose edge is a power of two. The input is unchanged.
func TransformNonStandard(a *ndarray.Array) *ndarray.Array {
	out := a.Clone()
	TransformNonStandardInPlace(out, NewScratch())
	return out
}

// TransformNonStandardInPlace overwrites a with its non-standard
// decomposition using the caller's scratch (bit-equal to
// TransformNonStandard; see TransformStandardInPlace).
func TransformNonStandardInPlace(a *ndarray.Array, s *Scratch) {
	checkShape(a, true)
	s.ensure(a.Extent(0), a.Dims())
	n := bitutil.Log2(a.Extent(0))
	for j := 1; j <= n; j++ {
		edge := a.Extent(0) >> uint(j-1)
		oneNonStdLevel(a, edge, false, s)
	}
}

// InverseNonStandard reconstructs the original cubic array.
func InverseNonStandard(hat *ndarray.Array) *ndarray.Array {
	out := hat.Clone()
	InverseNonStandardInPlace(out, NewScratch())
	return out
}

// InverseNonStandardInPlace overwrites hat with its reconstruction (see
// TransformStandardInPlace for the scratch contract).
func InverseNonStandardInPlace(hat *ndarray.Array, s *Scratch) {
	checkShape(hat, true)
	s.ensure(hat.Extent(0), hat.Dims())
	n := bitutil.Log2(hat.Extent(0))
	for j := n; j >= 1; j-- {
		edge := hat.Extent(0) >> uint(j-1)
		oneNonStdLevel(hat, edge, true, s)
	}
}

// oneNonStdLevel applies (or inverts) one level of pairwise
// averaging/differencing along every dimension inside the leading
// edge^d sub-cube, leaving averages in the leading (edge/2)^d corner and
// details in the Mallat subband positions. The region fibers are accessed
// through their strided span directly, so no per-fiber slice is built.
func oneNonStdLevel(a *ndarray.Array, edge int, inverse bool, s *Scratch) {
	d := a.Dims()
	half := edge / 2
	buf := s.line[:edge]
	dims := s.dims[:d]
	for i := range dims {
		dims[i] = i
	}
	if inverse {
		for i, j := 0, d-1; i < j; i, j = i+1, j-1 {
			dims[i], dims[j] = dims[j], dims[i]
		}
	}
	data := a.Data()
	for _, dim := range dims {
		eachRegionFiber(a, dim, edge, func(fixed []int) {
			base, stride, _ := a.FiberSpan(dim, fixed)
			if inverse {
				for k := 0; k < half; k++ {
					u, w := data[base+k*stride], data[base+(half+k)*stride]
					buf[2*k] = u + w
					buf[2*k+1] = u - w
				}
			} else {
				for k := 0; k < half; k++ {
					x, y := data[base+2*k*stride], data[base+(2*k+1)*stride]
					buf[k] = (x + y) / 2
					buf[half+k] = (x - y) / 2
				}
			}
			for k := 0; k < edge; k++ {
				data[base+k*stride] = buf[k]
			}
		})
	}
}

// eachRegionFiber visits each fiber along dim whose other coordinates lie in
// [0, edge).
func eachRegionFiber(a *ndarray.Array, dim, edge int, visit func(fixed []int)) {
	d := a.Dims()
	fixed := make([]int, d)
	var rec func(i int)
	rec = func(i int) {
		if i == d {
			visit(fixed)
			return
		}
		if i == dim {
			fixed[i] = 0
			rec(i + 1)
			return
		}
		for c := 0; c < edge; c++ {
			fixed[i] = c
			rec(i + 1)
		}
	}
	rec(0)
}

// Coef references one coefficient of a multidimensional transform by its
// array coordinates, with the weight it contributes to a reconstruction.
type Coef struct {
	Coords []int
	Weight float64
}

// PointPathStandard returns the prod_i (n_i + 1) weighted coefficients that
// reconstruct the cell at point for a standard-form transform of the given
// shape (the cross product of the per-dimension Lemma-1 paths, paper §3.1).
func PointPathStandard(shape, point []int) []Coef {
	d := len(shape)
	perDim := make([][]haar.Coef, d)
	total := 1
	for i := range shape {
		perDim[i] = haar.PointPath(bitutil.Log2(shape[i]), point[i])
		total *= len(perDim[i])
	}
	out := make([]Coef, 0, total)
	idx := make([]int, d)
	for {
		coords := make([]int, d)
		w := 1.0
		for i := 0; i < d; i++ {
			c := perDim[i][idx[i]]
			coords[i] = c.Index
			w *= c.Weight
		}
		out = append(out, Coef{Coords: coords, Weight: w})
		i := d - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(perDim[i]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return out
		}
	}
}

// ReconstructPointStandard evaluates one cell from a standard transform.
func ReconstructPointStandard(hat *ndarray.Array, point []int) float64 {
	v := 0.0
	for _, c := range PointPathStandard(hat.Shape(), point) {
		v += c.Weight * hat.At(c.Coords...)
	}
	return v
}

// RangeSumCoefsStandard returns the weighted coefficients answering the sum
// over the half-open box [start, start+shape) of the original array, as the
// cross product of per-dimension range-sum coefficient lists. At most
// prod_i (2*n_i + 1) coefficients appear, in a fixed order (last dimension
// fastest, each dimension's list by descending level), so folding the
// result sums in the same floating-point order on every call.
func RangeSumCoefsStandard(arrShape, start, shape []int) []Coef {
	d := len(arrShape)
	perDim := make([][]haar.Coef, d)
	for i := range arrShape {
		n := bitutil.Log2(arrShape[i])
		perDim[i] = haar.RangeSumCoefs(n, start[i], start[i]+shape[i]-1)
	}
	var out []Coef
	idx := make([]int, d)
	for {
		coords := make([]int, d)
		w := 1.0
		for i := 0; i < d; i++ {
			c := perDim[i][idx[i]]
			coords[i] = c.Index
			w *= c.Weight
		}
		if w != 0 {
			out = append(out, Coef{Coords: coords, Weight: w})
		}
		i := d - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(perDim[i]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return out
		}
	}
}

// RangeSumStandard evaluates a box sum directly from a standard transform.
func RangeSumStandard(hat *ndarray.Array, start, shape []int) float64 {
	sum := 0.0
	for _, c := range RangeSumCoefsStandard(hat.Shape(), start, shape) {
		sum += c.Weight * hat.At(c.Coords...)
	}
	return sum
}

// NonStdCoords returns the array coordinates of the non-standard detail
// coefficient at level j (1..n), subband (one bit per dimension, not all
// zero), and translation pos (each in [0, 2^(n-j))).
func NonStdCoords(n, j int, subband []bool, pos []int) []int {
	if j < 1 || j > n {
		panic(fmt.Sprintf("wavelet: NonStdCoords level %d out of [1,%d]", j, n))
	}
	coords := make([]int, len(pos))
	base := 1 << uint(n-j)
	any := false
	for i := range pos {
		if pos[i] < 0 || pos[i] >= base {
			panic(fmt.Sprintf("wavelet: NonStdCoords pos %v out of range at level %d", pos, j))
		}
		coords[i] = pos[i]
		if subband[i] {
			coords[i] += base
			any = true
		}
	}
	if !any {
		panic("wavelet: NonStdCoords requires a non-zero subband")
	}
	return coords
}

// NonStdLevel decodes array coordinates of a non-standard transform into
// (level, subband, pos). The origin decodes to level n+1 ("the average") by
// convention with a nil subband.
func NonStdLevel(n int, coords []int) (j int, subband []bool, pos []int) {
	max := 0
	for _, c := range coords {
		if c > max {
			max = c
		}
	}
	if max == 0 {
		return n + 1, nil, make([]int, len(coords))
	}
	// The level is determined by the largest coordinate: base = 2^(n-j) is
	// the largest power of two <= max.
	base := 1 << uint(bitutil.FloorLog2(max))
	j = n - bitutil.FloorLog2(max)
	subband = make([]bool, len(coords))
	pos = make([]int, len(coords))
	for i, c := range coords {
		if c >= base {
			subband[i] = true
			pos[i] = c - base
		} else {
			pos[i] = c
		}
		if pos[i] >= base {
			panic(fmt.Sprintf("wavelet: coords %v are not a valid non-standard position", coords))
		}
	}
	return j, subband, pos
}

// ReconstructPointNonStandard evaluates one cell of the original cubic array
// from its non-standard transform, touching 1 + n*(2^d - 1) coefficients
// (the quadtree path of §3.1).
func ReconstructPointNonStandard(hat *ndarray.Array, point []int) float64 {
	d := hat.Dims()
	n := bitutil.Log2(hat.Extent(0))
	origin := make([]int, d)
	u := hat.At(origin...)
	subband := make([]bool, d)
	coords := make([]int, d)
	for j := n; j >= 1; j-- {
		// Parent cell translation and the quadrant the point falls in.
		base := 1 << uint(n-j)
		// Sum over the 2^d - 1 subbands.
		for mask := 1; mask < 1<<uint(d); mask++ {
			w := 1.0
			for i := 0; i < d; i++ {
				subband[i] = mask>>uint(i)&1 == 1
				p := point[i] >> uint(j)
				coords[i] = p
				if subband[i] {
					coords[i] += base
					if point[i]>>uint(j-1)&1 == 1 {
						w = -w
					}
				}
			}
			u += w * hat.At(coords...)
		}
	}
	return u
}

// RangeSumNonStandard evaluates the sum over the half-open box
// [start, start+shape) from a non-standard transform by recursive quadtree
// descent: fully covered cells contribute their average times volume,
// partially covered cells recurse into their 2^d children.
func RangeSumNonStandard(hat *ndarray.Array, start, shape []int) float64 {
	d := hat.Dims()
	n := bitutil.Log2(hat.Extent(0))
	end := make([]int, d)
	for i := range start {
		if start[i] < 0 || shape[i] < 0 || start[i]+shape[i] > hat.Extent(i) {
			panic(fmt.Sprintf("wavelet: RangeSumNonStandard box %v+%v out of bounds", start, shape))
		}
		end[i] = start[i] + shape[i]
	}
	origin := make([]int, d)
	var descend func(j int, cell []int, u float64) float64
	descend = func(j int, cell []int, u float64) float64 {
		size := 1 << uint(j)
		// Cell box: [cell_i*size, (cell_i+1)*size) per dimension.
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
			return 0
		}
		if fullyIn {
			return u * float64(bitutil.IntPow(size, d))
		}
		if j == 0 {
			return u // single cell partially... cannot happen; j==0 cell is a point
		}
		// Recurse: compute each child's scaling coefficient from u and the
		// 2^d - 1 details of level j at translation cell.
		base := 1 << uint(n-j)
		details := make([]float64, 1<<uint(d))
		coords := make([]int, d)
		for mask := 1; mask < 1<<uint(d); mask++ {
			for i := 0; i < d; i++ {
				coords[i] = cell[i]
				if mask>>uint(i)&1 == 1 {
					coords[i] += base
				}
			}
			details[mask] = hat.At(coords...)
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
			sum += descend(j-1, child, cu)
		}
		return sum
	}
	rootCell := make([]int, d)
	return descend(n, rootCell, hat.At(origin...))
}
