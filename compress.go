package shiftsplit

import (
	"io"

	"github.com/shiftsplit/shiftsplit/internal/query"
	"github.com/shiftsplit/shiftsplit/internal/synopsis"
)

// CompressedTransform is a best-K-term approximation of a wavelet
// transform: the K coefficients whose omission costs the most squared
// error. Because the Haar basis is orthogonal the approximation's squared
// error equals DroppedEnergy exactly, so the quality of any synopsis size
// is known without reconstructing anything.
type CompressedTransform struct {
	inner *synopsis.Compressed
}

// Compress retains the k highest-energy coefficients of a transform
// (k <= 0 keeps everything).
func Compress(hat *Array, form Form, k int) *CompressedTransform {
	return &CompressedTransform{inner: synopsis.Compress(hat, form, k)}
}

// K returns the number of retained coefficients.
func (c *CompressedTransform) K() int { return c.inner.K() }

// Shape returns the original domain extents.
func (c *CompressedTransform) Shape() []int { return append([]int(nil), c.inner.Shape...) }

// Form returns the decomposition form.
func (c *CompressedTransform) Form() Form { return c.inner.Form }

// DroppedEnergy returns the exact squared error of the approximation.
func (c *CompressedTransform) DroppedEnergy() float64 { return c.inner.DroppedEnergy }

// RetainedEnergy returns the summed energy of the kept coefficients.
func (c *CompressedTransform) RetainedEnergy() float64 { return c.inner.RetainedEnergy() }

// Reconstruct inverts the approximation back to the data domain.
func (c *CompressedTransform) Reconstruct() *Array { return c.inner.Reconstruct() }

// PointValue evaluates one cell of the approximation from the retained
// coefficients alone.
func (c *CompressedTransform) PointValue(point []int) float64 { return c.inner.PointValue(point) }

// RangeSum evaluates an approximate box aggregate over [start, start+shape).
func (c *CompressedTransform) RangeSum(start, shape []int) float64 {
	return RangeSum(c.inner.Transform(), c.inner.Form, start, shape)
}

// SSE returns the exact squared error against the original data (equal to
// DroppedEnergy up to floating-point rounding).
func (c *CompressedTransform) SSE(orig *Array) float64 { return c.inner.SSE(orig) }

// WriteTo serializes the synopsis (a compact binary format).
func (c *CompressedTransform) WriteTo(w io.Writer) (int64, error) { return c.inner.WriteTo(w) }

// ReadCompressedTransform deserializes a synopsis written by WriteTo.
func ReadCompressedTransform(r io.Reader) (*CompressedTransform, error) {
	inner, err := synopsis.ReadCompressed(r)
	if err != nil {
		return nil, err
	}
	return &CompressedTransform{inner: inner}, nil
}

// ProgressiveStep is one refinement of a progressive range query.
type ProgressiveStep = query.ProgressiveStep

// ProgressiveRangeSum answers a box aggregate progressively (coarse
// coefficients first), returning the running estimates; the final step is
// exact and its Blocks is the I/O done. Standard form only.
func (s *Store) ProgressiveRangeSum(start, shape []int) (steps []ProgressiveStep, err error) {
	err = s.WithSnapshot(func(sn *Snapshot) error {
		steps, err = sn.ProgressiveRangeSum(start, shape)
		return err
	})
	return steps, err
}

// ProgressiveRangeSumFunc is the streaming form of ProgressiveRangeSum: fn
// receives every refinement step as soon as it is computed, so a server can
// flush partial answers while later coefficients are still being folded. A
// non-nil error from fn aborts the walk and is returned unchanged.
func (s *Store) ProgressiveRangeSumFunc(start, shape []int, fn func(ProgressiveStep) error) error {
	return s.WithSnapshot(func(sn *Snapshot) error {
		return sn.ProgressiveRangeSumFunc(start, shape, fn)
	})
}
