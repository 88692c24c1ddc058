// Package shiftsplit is an I/O-efficient maintenance library for
// wavelet-transformed multidimensional data, reproducing Jahangiri,
// Sacharidis and Shahabi, "SHIFT-SPLIT: I/O Efficient Maintenance of
// Wavelet-Transformed Multidimensional Data" (SIGMOD 2005).
//
// The library decomposes dense multidimensional arrays with the unnormalized
// Haar wavelet in either the standard or the non-standard form, stores the
// coefficients on block storage under the paper's optimal tiling, and
// maintains them entirely in the wavelet domain:
//
//   - Transform / Inverse — in-memory decomposition of both forms;
//   - Merge / Extract — the SHIFT-SPLIT operations: fold a dyadic block's
//     transform into an enclosing transform, or pull one out, without
//     touching the rest (paper §4);
//   - Store — a tiled, I/O-counted, optionally file-backed transform
//     supporting chunked bulk transformation (Results 1–2), point and
//     range-sum queries, and partial reconstruction (Result 6);
//   - Appender — appending in the wavelet domain with automatic domain
//     expansion (paper §5.2);
//   - StreamSynopsis — best-K-term synopsis maintenance over unbounded
//     streams with buffered SHIFT-SPLIT updates (Result 3).
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduction of the paper's evaluation.
package shiftsplit

import (
	"fmt"
	"slices"

	"github.com/shiftsplit/shiftsplit/internal/bitutil"
	"github.com/shiftsplit/shiftsplit/internal/core"
	"github.com/shiftsplit/shiftsplit/internal/dyadic"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/wavelet"
)

// Form selects the multidimensional decomposition.
type Form = wavelet.Form

// The two decomposition forms of §2.1.
const (
	Standard    = wavelet.Standard
	NonStandard = wavelet.NonStandard
)

// Array is a dense row-major multidimensional array of float64, the
// in-memory representation of datasets and transforms.
type Array = ndarray.Array

// NewArray allocates a zero array with the given power-of-two-friendly
// shape (transform operations additionally require power-of-two extents).
func NewArray(shape ...int) *Array { return ndarray.New(shape...) }

// FromSlice wraps data (without copying) as an array of the given shape.
func FromSlice(data []float64, shape ...int) *Array { return ndarray.FromSlice(data, shape...) }

// Transform decomposes a into the requested form. Extents must be powers of
// two; the non-standard form requires a cubic array.
func Transform(a *Array, form Form) *Array { return wavelet.Transform(a, form) }

// Inverse reconstructs the original array from its transform.
func Inverse(hat *Array, form Form) *Array { return wavelet.Inverse(hat, form) }

// Block identifies a multidimensional dyadic block: in dimension t it spans
// [Pos[t]*2^Levels[t], (Pos[t]+1)*2^Levels[t]).
type Block struct {
	Levels []int
	Pos    []int
}

// CubeBlock builds a cubic block with the same level in every dimension.
func CubeBlock(level int, pos ...int) Block {
	levels := make([]int, len(pos))
	for i := range levels {
		levels[i] = level
	}
	return Block{Levels: levels, Pos: append([]int(nil), pos...)}
}

// BlockAt returns the dyadic block with the given per-dimension start and
// edge (both must describe a dyadic range) or an error.
func BlockAt(start, shape []int) (Block, error) {
	if len(start) != len(shape) {
		return Block{}, fmt.Errorf("shiftsplit: start %v and shape %v disagree", start, shape)
	}
	b := Block{Levels: make([]int, len(start)), Pos: make([]int, len(start))}
	for t := range start {
		iv, ok := dyadic.FromRange(start[t], shape[t])
		if !ok {
			return Block{}, fmt.Errorf("shiftsplit: [%d,+%d) in dim %d is not dyadic", start[t], shape[t], t)
		}
		b.Levels[t] = iv.Level
		b.Pos[t] = iv.Pos
	}
	return b, nil
}

// Start returns the block's lower corner.
func (b Block) Start() []int {
	s := make([]int, len(b.Pos))
	for i := range s {
		s[i] = b.Pos[i] << uint(b.Levels[i])
	}
	return s
}

// Shape returns the block's edge lengths.
func (b Block) Shape() []int {
	s := make([]int, len(b.Pos))
	for i := range s {
		s[i] = 1 << uint(b.Levels[i])
	}
	return s
}

func (b Block) toRange() dyadic.Range {
	r := make(dyadic.Range, len(b.Pos))
	for i := range b.Pos {
		r[i] = dyadic.NewInterval(b.Levels[i], b.Pos[i])
	}
	return r
}

// isCubic reports whether the block has one level across dimensions.
func (b Block) isCubic() bool {
	for _, l := range b.Levels[1:] {
		if l != b.Levels[0] {
			return false
		}
	}
	return true
}

func (b Block) validate(shape []int) error {
	if len(b.Levels) != len(shape) || len(b.Pos) != len(shape) {
		return fmt.Errorf("shiftsplit: block %v/%v for shape %v", b.Levels, b.Pos, shape)
	}
	for t := range shape {
		if !bitutil.IsPow2(shape[t]) {
			return fmt.Errorf("shiftsplit: extent %d is not a power of two", shape[t])
		}
		n := bitutil.Log2(shape[t])
		if b.Levels[t] < 0 || b.Levels[t] > n {
			return fmt.Errorf("shiftsplit: block level %d out of [0,%d] in dim %d", b.Levels[t], n, t)
		}
		if b.Pos[t] < 0 || b.Pos[t] >= 1<<uint(n-b.Levels[t]) {
			return fmt.Errorf("shiftsplit: block pos %d out of range in dim %d", b.Pos[t], t)
		}
	}
	return nil
}

// Merge adds the embedding of bHat — the transform (in the same form) of a
// block's contents — into the transform aHat, in place. This is SHIFT-SPLIT:
// it both constructs transforms of partial data (Example 1 of §4) and
// applies batched updates (Example 2), because the Haar transform is linear.
func Merge(aHat *Array, form Form, b Block, bHat *Array) error {
	if err := validateMerge(aHat.Shape(), form, b, bHat); err != nil {
		return err
	}
	if form == Standard {
		core.MergeStandard(aHat, b.toRange(), bHat)
	} else {
		core.MergeNonStandard(aHat, b.Levels[0], b.Pos, bHat)
	}
	return nil
}

// validateMerge is the input check shared by Merge, Store.MergeBlock and
// Store.ClearBlock: b is a block of a domain of the given shape that the
// form can merge (the non-standard form embeds cubic blocks only), and bHat,
// when given, has the block's shape. The kernels behind those entry points
// index by the block's geometry and panic on anything else.
func validateMerge(shape []int, form Form, b Block, bHat *Array) error {
	if err := b.validate(shape); err != nil {
		return err
	}
	switch form {
	case Standard:
	case NonStandard:
		if !b.isCubic() {
			return fmt.Errorf("shiftsplit: non-standard merge needs a cubic block, got levels %v", b.Levels)
		}
	default:
		return fmt.Errorf("shiftsplit: unknown form %v", form)
	}
	if bHat != nil && !slices.Equal(bHat.Shape(), b.Shape()) {
		return fmt.Errorf("shiftsplit: block transform shape %v, block wants %v", bHat.Shape(), b.Shape())
	}
	return nil
}

// Extract computes the exact transform of a block's contents from aHat via
// the inverse SHIFT-SPLIT (paper §5.4), reading only the block subtree and
// the root path.
func Extract(aHat *Array, form Form, b Block) (*Array, error) {
	if err := b.validate(aHat.Shape()); err != nil {
		return nil, err
	}
	switch form {
	case Standard:
		return core.ExtractStandard(aHat, b.toRange()), nil
	case NonStandard:
		if !b.isCubic() {
			return nil, fmt.Errorf("shiftsplit: non-standard extract needs a cubic block, got levels %v", b.Levels)
		}
		return core.ExtractNonStandard(aHat, b.Levels[0], b.Pos), nil
	default:
		return nil, fmt.Errorf("shiftsplit: unknown form %v", form)
	}
}

// BlockAverage returns the average of the original data over a block,
// reconstructed from the transform via the inverse SPLIT alone.
func BlockAverage(aHat *Array, form Form, b Block) (float64, error) {
	if err := b.validate(aHat.Shape()); err != nil {
		return 0, err
	}
	switch form {
	case Standard:
		return core.ScalingStandard(aHat, b.toRange()), nil
	case NonStandard:
		if !b.isCubic() {
			return 0, fmt.Errorf("shiftsplit: non-standard average needs a cubic block")
		}
		return core.ScalingNonStandard(aHat, b.Levels[0], b.Pos), nil
	default:
		return 0, fmt.Errorf("shiftsplit: unknown form %v", form)
	}
}

// PointValue reconstructs one cell from an in-memory transform using the
// Lemma-1 path (log-many coefficients).
func PointValue(hat *Array, form Form, point []int) float64 {
	if form == Standard {
		return wavelet.ReconstructPointStandard(hat, point)
	}
	return wavelet.ReconstructPointNonStandard(hat, point)
}

// RangeSum evaluates the sum of the original data over the half-open box
// [start, start+shape) directly from an in-memory transform, touching
// O(log^d) coefficients in the standard form (Lemma 2).
func RangeSum(hat *Array, form Form, start, shape []int) float64 {
	if form == Standard {
		return wavelet.RangeSumStandard(hat, start, shape)
	}
	return wavelet.RangeSumNonStandard(hat, start, shape)
}
