package shiftsplit

import (
	"fmt"
	"slices"

	"github.com/shiftsplit/shiftsplit/internal/dyadic"
	"github.com/shiftsplit/shiftsplit/internal/olap"
	"github.com/shiftsplit/shiftsplit/internal/query"
	"github.com/shiftsplit/shiftsplit/internal/reconstruct"
)

// The OLAP operators come in two forms. On an in-memory standard-form
// transform, the functions below return the exact transform of the result
// cube; no data is ever reconstructed. On a store, Snapshot.OLAP answers an
// OLAPOp with the result's data, reading only the operator's band; that is
// the form the network API serves. Both forms run the same shape checks,
// so invalid dimensions and indices surface as errors wrapping
// query.ErrInvalid, never as panics out of the wavelet algebra.

// validateOLAPDim checks the shared preconditions of the operators: at
// least two dimensions and an in-range dimension argument.
func validateOLAPDim(shape []int, dim int) error {
	if len(shape) < 2 {
		return fmt.Errorf("%w: OLAP operators need at least 2 dimensions, transform has %d", query.ErrInvalid, len(shape))
	}
	if dim < 0 || dim >= len(shape) {
		return fmt.Errorf("%w: dimension %d out of range for %d-d transform", query.ErrInvalid, dim, len(shape))
	}
	return nil
}

// OLAPOp is one OLAP operator over dimension Dim of a standard-form cube:
// Op "rollup" sums Dim out, "slice" fixes it to Index, and "dice" restricts
// it to the dyadic run [Start, Start+Length). Rollup, SliceAt and
// DiceDyadic are the same operators on an in-memory transform.
type OLAPOp struct {
	Op                        string
	Dim, Index, Start, Length int
}

// band validates op against a cube of the given shape and returns the box
// the extraction walk reads for it, with the dimension it sums out (-1 if
// none). The box's cells are the result's: a rollup or slice leaves extent
// 1 along Dim, which the result drops.
func (op OLAPOp) band(shape []int) (start, extent []int, sum int, err error) {
	if err := validateOLAPDim(shape, op.Dim); err != nil {
		return nil, nil, 0, err
	}
	start, extent, sum = make([]int, len(shape)), slices.Clone(shape), -1
	switch n := shape[op.Dim]; op.Op {
	case "rollup":
		extent[op.Dim], sum = 1, op.Dim
	case "slice":
		if op.Index < 0 || op.Index >= n {
			err = fmt.Errorf("%w: slice index %d out of [0,%d) along dimension %d", query.ErrInvalid, op.Index, n, op.Dim)
		}
		start[op.Dim], extent[op.Dim] = op.Index, 1
	case "dice":
		if _, ok := dyadic.FromRange(op.Start, op.Length); !ok || op.Start > n-op.Length {
			err = fmt.Errorf("%w: [%d,+%d) is not a dyadic run of dimension %d", query.ErrInvalid, op.Start, op.Length, op.Dim)
		}
		start[op.Dim], extent[op.Dim] = op.Start, op.Length
	default:
		err = fmt.Errorf("%w: unknown OLAP operator %q", query.ErrInvalid, op.Op)
	}
	return start, extent, sum, err
}

// olapBand is op's band on the store, which must be in the standard form.
func (s *Store) olapBand(op OLAPOp) (start, extent []int, sum int, err error) {
	if s.opts.Form != Standard {
		return nil, nil, 0, fmt.Errorf("%w: OLAP operators need a standard-form store", query.ErrInvalid)
	}
	return op.band(s.opts.Shape)
}

// OLAPCells validates op against the store and returns the number of cells
// of its result. It reads nothing, so a server can refuse an oversized
// result before it pins a snapshot.
func (s *Store) OLAPCells(op OLAPOp) (int, error) {
	_, extent, _, err := s.olapBand(op)
	cells := 1
	for _, e := range extent {
		cells *= e
	}
	return cells, err
}

// OLAP answers op as of the pinned epoch and returns the result cube's data
// (not its transform) with the number of blocks read. It reads only the
// operator's band, through the extraction walk of ExtractBox: a dice is
// the box of its run along Dim and of the whole domain elsewhere, a slice
// the box of extent 1 at Index, and a rollup the same walk with Dim summed
// out, which reads the transform's index-0 face along Dim.
func (sn *Snapshot) OLAP(op OLAPOp) (*Array, int, error) {
	start, extent, sum, err := sn.st.olapBand(op)
	if err != nil {
		return nil, 0, err
	}
	out, blocks, err := reconstruct.Band(sn.ts, start, extent, sum)
	if err != nil {
		return nil, 0, err
	}
	if op.Op != "dice" {
		extent = slices.Delete(extent, op.Dim, op.Dim+1)
	}
	return FromSlice(out.Data(), extent...), blocks, nil
}

// Rollup returns the transform of the cube summed over dimension dim.
func Rollup(hat *Array, dim int) (*Array, error) {
	if err := validateOLAPDim(hat.Shape(), dim); err != nil {
		return nil, err
	}
	return olap.Marginalize(hat, dim), nil
}

// AverageOver returns the transform of the cube averaged over dimension dim.
func AverageOver(hat *Array, dim int) (*Array, error) {
	if err := validateOLAPDim(hat.Shape(), dim); err != nil {
		return nil, err
	}
	return olap.Average(hat, dim), nil
}

// SliceAt returns the transform of the (d-1)-dimensional cube with
// dimension dim fixed to x.
func SliceAt(hat *Array, dim, x int) (*Array, error) {
	if _, _, _, err := (OLAPOp{Op: "slice", Dim: dim, Index: x}).band(hat.Shape()); err != nil {
		return nil, err
	}
	return olap.Slice(hat, dim, x), nil
}

// Totals returns the 1-d transform of the grand totals along dimension
// keep (every other dimension rolled up).
func Totals(hat *Array, keep int) (*Array, error) {
	if err := validateOLAPDim(hat.Shape(), keep); err != nil {
		return nil, err
	}
	return olap.PivotSum(hat, keep), nil
}

// DiceDyadic returns the transform of the cube restricted along dimension
// dim to the dyadic run [start, start+length); the run must be dyadic.
func DiceDyadic(hat *Array, dim, start, length int) (*Array, error) {
	if _, _, _, err := (OLAPOp{Op: "dice", Dim: dim, Start: start, Length: length}).band(hat.Shape()); err != nil {
		return nil, err
	}
	iv, _ := dyadic.FromRange(start, length)
	return olap.Dice(hat, dim, iv), nil
}
