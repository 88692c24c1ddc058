package query

import (
	"errors"
	"fmt"

	"github.com/shiftsplit/shiftsplit/internal/tile"
)

// The query entry points sit behind the network API, so malformed inputs —
// wrong dimensionality, negative coordinates, boxes that overflow or leave
// the domain — must surface as errors, never as panics out of the haar or
// tiling layers.

// ErrInvalid marks errors caused by a malformed query rather than by the
// store; the serving layer maps it to a 400 response. Test with errors.Is.
var ErrInvalid = errors.New("invalid query")

// ValidatePoint checks that point addresses a cell of a domain with the
// given extents.
func ValidatePoint(arrShape, point []int) error {
	if len(point) != len(arrShape) {
		return fmt.Errorf("%w: point has %d coordinates, domain has %d dimensions", ErrInvalid, len(point), len(arrShape))
	}
	for i, p := range point {
		if p < 0 || p >= arrShape[i] {
			return fmt.Errorf("%w: point coordinate %d = %d out of [0,%d)", ErrInvalid, i, p, arrShape[i])
		}
	}
	return nil
}

// ValidateBox checks that [start, start+shape) is a non-empty box inside a
// domain with the given extents. The comparison is phrased so that a huge
// start plus a huge extent cannot overflow int before being rejected.
func ValidateBox(arrShape, start, shape []int) error {
	if len(start) != len(arrShape) || len(shape) != len(arrShape) {
		return fmt.Errorf("%w: box start %d-d / extent %d-d for a %d-d domain", ErrInvalid, len(start), len(shape), len(arrShape))
	}
	for i := range arrShape {
		if shape[i] < 1 {
			return fmt.Errorf("%w: box extent %d along dimension %d", ErrInvalid, shape[i], i)
		}
		if start[i] < 0 {
			return fmt.Errorf("%w: box start %d along dimension %d", ErrInvalid, start[i], i)
		}
		// Overflow-safe form of start+shape <= arrShape.
		if start[i] > arrShape[i]-shape[i] {
			return fmt.Errorf("%w: box [%d,+%d) leaves [0,%d) along dimension %d", ErrInvalid, start[i], shape[i], arrShape[i], i)
		}
	}
	return nil
}

// domainShape returns the domain extents of whichever tiling the store
// uses: the tiling's own slice, not to be modified.
func domainShape(st *tile.Store) ([]int, error) {
	switch t := st.Tiling().(type) {
	case *tile.Standard:
		return t.Domain(), nil
	case *tile.NonStandard:
		return t.Domain(), nil
	default:
		return nil, fmt.Errorf("query: unknown tiling %T", st.Tiling())
	}
}
