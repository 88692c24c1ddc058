// Package ndarray implements dense row-major multidimensional arrays of
// float64. It is the in-memory data substrate for every multidimensional
// wavelet operation in this repository: datasets, chunks, and transformed
// coefficient cubes are all Arrays.
package ndarray

import (
	"fmt"
	"math"
)

// Array is a dense row-major d-dimensional array. The zero value is an empty
// 0-dimensional array; use New or FromSlice for anything useful.
type Array struct {
	shape   []int
	strides []int
	data    []float64
}

// New allocates a zero-filled array with the given shape.
// Every extent must be positive.
func New(shape ...int) *Array {
	size := 1
	for _, s := range shape {
		if s <= 0 {
			panic(fmt.Sprintf("ndarray: non-positive extent in shape %v", shape))
		}
		size *= s
	}
	a := &Array{
		shape:   append([]int(nil), shape...),
		strides: computeStrides(shape),
		data:    make([]float64, size),
	}
	return a
}

// FromSlice wraps data (without copying) as an array of the given shape.
// len(data) must equal the product of the extents.
func FromSlice(data []float64, shape ...int) *Array {
	size := 1
	for _, s := range shape {
		if s <= 0 {
			panic(fmt.Sprintf("ndarray: non-positive extent in shape %v", shape))
		}
		size *= s
	}
	if len(data) != size {
		panic(fmt.Sprintf("ndarray: data length %d does not match shape %v (size %d)", len(data), shape, size))
	}
	return &Array{
		shape:   append([]int(nil), shape...),
		strides: computeStrides(shape),
		data:    data,
	}
}

func computeStrides(shape []int) []int {
	strides := make([]int, len(shape))
	stride := 1
	for i := len(shape) - 1; i >= 0; i-- {
		strides[i] = stride
		stride *= shape[i]
	}
	return strides
}

// Dims returns the number of dimensions.
func (a *Array) Dims() int { return len(a.shape) }

// Shape returns a copy of the extents.
func (a *Array) Shape() []int { return append([]int(nil), a.shape...) }

// Extent returns the size of dimension dim.
func (a *Array) Extent(dim int) int { return a.shape[dim] }

// Size returns the total number of cells.
func (a *Array) Size() int { return len(a.data) }

// Data returns the backing slice in row-major order. Mutations are visible
// to the array.
func (a *Array) Data() []float64 { return a.data }

// Offset converts multidimensional coordinates to a flat row-major offset.
func (a *Array) Offset(coords []int) int {
	if len(coords) != len(a.shape) {
		panic(fmt.Sprintf("ndarray: coords %v for shape %v", coords, a.shape))
	}
	off := 0
	for i, c := range coords {
		if c < 0 || c >= a.shape[i] {
			panic(fmt.Sprintf("ndarray: coord %v out of bounds for shape %v", coords, a.shape))
		}
		off += c * a.strides[i]
	}
	return off
}

// Coords converts a flat row-major offset back to coordinates.
func (a *Array) Coords(offset int) []int {
	if offset < 0 || offset >= len(a.data) {
		panic(fmt.Sprintf("ndarray: offset %d out of bounds (size %d)", offset, len(a.data)))
	}
	coords := make([]int, len(a.shape))
	for i, s := range a.strides {
		coords[i] = offset / s
		offset %= s
	}
	return coords
}

// At returns the value at the given coordinates.
func (a *Array) At(coords ...int) float64 { return a.data[a.Offset(coords)] }

// Set stores v at the given coordinates.
func (a *Array) Set(v float64, coords ...int) { a.data[a.Offset(coords)] = v }

// Add adds v to the cell at the given coordinates.
func (a *Array) Add(v float64, coords ...int) { a.data[a.Offset(coords)] += v }

// Fill sets every cell to v.
func (a *Array) Fill(v float64) {
	for i := range a.data {
		a.data[i] = v
	}
}

// Clone returns a deep copy.
func (a *Array) Clone() *Array {
	c := New(a.shape...)
	copy(c.data, a.data)
	return c
}

// EqualApprox reports whether two arrays have identical shape and all cells
// within tol of each other.
func (a *Array) EqualApprox(b *Array, tol float64) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute cell difference between two arrays
// of identical shape.
func (a *Array) MaxAbsDiff(b *Array) float64 {
	if len(a.data) != len(b.data) {
		panic("ndarray: MaxAbsDiff shape mismatch")
	}
	max := 0.0
	for i := range a.data {
		if d := math.Abs(a.data[i] - b.data[i]); d > max {
			max = d
		}
	}
	return max
}

// SubCopy extracts the sub-hypercube starting at start with the given shape
// into a freshly allocated array.
func (a *Array) SubCopy(start, shape []int) *Array {
	a.checkSub(start, shape)
	out := New(shape...)
	a.walkSub(start, shape, func(src, dst, n int) {
		copy(out.data[dst:dst+n], a.data[src:src+n])
	})
	return out
}

// SubCopyInto extracts the sub-hypercube starting at start into out, whose
// shape fixes the region's extents. Every cell of out is overwritten. It is
// the allocation-free form of SubCopy for callers that reuse a chunk buffer.
func (a *Array) SubCopyInto(out *Array, start []int) {
	a.checkSub(start, out.shape)
	a.walkSub(start, out.shape, func(src, dst, n int) {
		copy(out.data[dst:dst+n], a.data[src:src+n])
	})
}

// SubPaste writes sub into the region of a starting at start.
func (a *Array) SubPaste(sub *Array, start []int) {
	a.checkSub(start, sub.shape)
	a.walkSub(start, sub.shape, func(src, dst, n int) {
		copy(a.data[src:src+n], sub.data[dst:dst+n])
	})
}

// SubAdd accumulates sub into the region of a starting at start.
func (a *Array) SubAdd(sub *Array, start []int) {
	a.checkSub(start, sub.shape)
	a.walkSub(start, sub.shape, func(src, dst, n int) {
		for i, v := range sub.data[dst : dst+n] {
			a.data[src+i] += v
		}
	})
}

func (a *Array) checkSub(start, shape []int) {
	if len(start) != len(a.shape) || len(shape) != len(a.shape) {
		panic(fmt.Sprintf("ndarray: sub-region start %v shape %v for array shape %v", start, shape, a.shape))
	}
	for i := range start {
		if start[i] < 0 || shape[i] <= 0 || start[i]+shape[i] > a.shape[i] {
			panic(fmt.Sprintf("ndarray: sub-region start %v shape %v out of bounds for %v", start, shape, a.shape))
		}
	}
}

// walkSub visits the sub-region one row (a run along the innermost,
// contiguous dimension) at a time, in row-major order, passing the row's
// offset in a (src), its row-major offset inside the sub-region (dst) and
// its length.
func (a *Array) walkSub(start, shape []int, visit func(src, dst, n int)) {
	d := len(shape)
	if d == 0 {
		visit(0, 0, 1)
		return
	}
	coords := make([]int, d)
	dstOff := 0
	for {
		base := 0
		for i := 0; i < d-1; i++ {
			base += (start[i] + coords[i]) * a.strides[i]
		}
		base += start[d-1] * a.strides[d-1]
		visit(base, dstOff, shape[d-1])
		dstOff += shape[d-1]
		// Advance all but the innermost dimension.
		i := d - 2
		for ; i >= 0; i-- {
			coords[i]++
			if coords[i] < shape[i] {
				break
			}
			coords[i] = 0
		}
		if i < 0 {
			return
		}
	}
}

// FiberSpan exposes the strided layout of the 1-d line along dimension dim:
// the line's cells live at Data()[base + i*stride] for i in [0, n). The
// in-place transforms use it to read and write fibers without copying
// through an intermediate slice.
func (a *Array) FiberSpan(dim int, fixed []int) (base, stride, n int) {
	if dim < 0 || dim >= len(a.shape) {
		panic(fmt.Sprintf("ndarray: fiber dim %d for shape %v", dim, a.shape))
	}
	if len(fixed) != len(a.shape) {
		panic(fmt.Sprintf("ndarray: fiber fixed coords %v for shape %v", fixed, a.shape))
	}
	for i, c := range fixed {
		if i == dim {
			continue
		}
		if c < 0 || c >= a.shape[i] {
			panic(fmt.Sprintf("ndarray: fiber fixed coords %v out of bounds for %v", fixed, a.shape))
		}
		base += c * a.strides[i]
	}
	return base, a.strides[dim], a.shape[dim]
}

// EachFiber calls visit once per 1-d line along dimension dim. The fixed
// slice passed to visit is reused between calls; copy it if retained. The
// entry fixed[dim] is always zero.
func (a *Array) EachFiber(dim int, visit func(fixed []int)) {
	fixed := make([]int, len(a.shape))
	var rec func(i int)
	rec = func(i int) {
		if i == len(a.shape) {
			visit(fixed)
			return
		}
		if i == dim {
			fixed[i] = 0
			rec(i + 1)
			return
		}
		for c := 0; c < a.shape[i]; c++ {
			fixed[i] = c
			rec(i + 1)
		}
	}
	rec(0)
}

// Each visits every cell in row-major order. The coords slice is reused;
// copy it if retained.
func (a *Array) Each(visit func(coords []int, v float64)) {
	coords := make([]int, len(a.shape))
	for off, v := range a.data {
		visit(coords, v)
		for i := len(coords) - 1; i >= 0; i-- {
			coords[i]++
			if coords[i] < a.shape[i] {
				break
			}
			coords[i] = 0
		}
		_ = off
	}
}

// SumRange sums the cells of the half-open box [start, start+shape).
func (a *Array) SumRange(start, shape []int) float64 {
	a.checkSub(start, shape)
	sum := 0.0
	a.walkSub(start, shape, func(src, _, n int) {
		for _, v := range a.data[src : src+n] {
			sum += v
		}
	})
	return sum
}

// Sum returns the sum of all cells.
func (a *Array) Sum() float64 {
	sum := 0.0
	for _, v := range a.data {
		sum += v
	}
	return sum
}

// String renders small arrays for debugging; large arrays are summarized.
func (a *Array) String() string {
	if len(a.data) <= 64 {
		return fmt.Sprintf("ndarray%v%v", a.shape, a.data)
	}
	return fmt.Sprintf("ndarray%v[%d cells]", a.shape, len(a.data))
}
