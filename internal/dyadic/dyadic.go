// Package dyadic models dyadic intervals and multidimensional dyadic ranges.
//
// A dyadic interval (Definition 3 of the paper) is I[j,k] =
// [k*2^j, (k+1)*2^j - 1] for 0 <= j <= n and 0 <= k < 2^(n-j). Dyadic
// intervals are exactly the support intervals of Haar wavelet and scaling
// coefficients (Property 1), which makes them the unit of work of the SHIFT
// and SPLIT operations: SHIFT-SPLIT relates the transform of a dyadic
// subregion to the transform of the enclosing vector.
package dyadic

import (
	"fmt"

	"github.com/shiftsplit/shiftsplit/internal/bitutil"
)

// Interval is the dyadic interval I[j,k] = [k*2^j, (k+1)*2^j - 1].
// Level is j (the log2 of the length); Pos is k (the translation).
type Interval struct {
	Level int
	Pos   int
}

// NewInterval returns I[level,pos], validating level >= 0 and pos >= 0.
func NewInterval(level, pos int) Interval {
	if level < 0 || pos < 0 {
		panic(fmt.Sprintf("dyadic: invalid interval level=%d pos=%d", level, pos))
	}
	return Interval{Level: level, Pos: pos}
}

// FromRange returns the dyadic interval covering [start, start+length) and
// reports whether that range is in fact dyadic (length a power of two and
// start aligned to it).
func FromRange(start, length int) (Interval, bool) {
	if start < 0 || !bitutil.IsPow2(length) {
		return Interval{}, false
	}
	if start%length != 0 {
		return Interval{}, false
	}
	return Interval{Level: bitutil.Log2(length), Pos: start / length}, true
}

// Start returns the first index of the interval.
func (iv Interval) Start() int { return iv.Pos << uint(iv.Level) }

// End returns the last index of the interval (inclusive).
func (iv Interval) End() int { return iv.Start() + iv.Len() - 1 }

// Len returns the number of points covered, 2^Level.
func (iv Interval) Len() int { return 1 << uint(iv.Level) }

// Contains reports whether index i lies inside the interval.
func (iv Interval) Contains(i int) bool { return i >= iv.Start() && i <= iv.End() }

// Covers reports whether iv completely contains other (Definition 2).
func (iv Interval) Covers(other Interval) bool {
	return iv.Level >= other.Level && other.Pos>>uint(iv.Level-other.Level) == iv.Pos
}

// Parent returns the dyadic interval one level up that covers iv.
func (iv Interval) Parent() Interval {
	return Interval{Level: iv.Level + 1, Pos: iv.Pos / 2}
}

// Left and Right return the two child intervals one level down.
// They panic at level 0.
func (iv Interval) Left() Interval {
	if iv.Level == 0 {
		panic("dyadic: Left of level-0 interval")
	}
	return Interval{Level: iv.Level - 1, Pos: 2 * iv.Pos}
}

// Right returns the right child interval. See Left.
func (iv Interval) Right() Interval {
	if iv.Level == 0 {
		panic("dyadic: Right of level-0 interval")
	}
	return Interval{Level: iv.Level - 1, Pos: 2*iv.Pos + 1}
}

// String renders the interval as I[j,k]=[start,end].
func (iv Interval) String() string {
	return fmt.Sprintf("I[%d,%d]=[%d,%d]", iv.Level, iv.Pos, iv.Start(), iv.End())
}

// Decompose splits an arbitrary half-open range [start, end) inside a domain
// of size 2^n into the minimal set of maximal disjoint dyadic intervals,
// ordered by start. An arbitrary selection range can always be seen as a
// collection of dyadic ranges (paper §5.4); this is that collection.
func Decompose(start, end int) []Interval {
	if start < 0 || end < start {
		panic(fmt.Sprintf("dyadic: Decompose invalid range [%d,%d)", start, end))
	}
	var out []Interval
	for start < end {
		// Largest power of two that divides start and fits in end-start.
		level := 0
		for {
			next := level + 1
			size := 1 << uint(next)
			if start%size != 0 || start+size > end {
				break
			}
			level = next
		}
		out = append(out, Interval{Level: level, Pos: start >> uint(level)})
		start += 1 << uint(level)
	}
	return out
}

// Range is a multidimensional dyadic range: the cross product of one dyadic
// interval per dimension (paper §4.1).
type Range []Interval

// NewCubeRange returns the cubic dyadic range with the same level in every
// dimension, positioned at pos (one entry per dimension).
func NewCubeRange(level int, pos []int) Range {
	r := make(Range, len(pos))
	for i, p := range pos {
		r[i] = NewInterval(level, p)
	}
	return r
}

// Dims returns the dimensionality of the range.
func (r Range) Dims() int { return len(r) }

// Volume returns the number of cells covered.
func (r Range) Volume() int {
	v := 1
	for _, iv := range r {
		v *= iv.Len()
	}
	return v
}

// Start returns the lower corner of the range.
func (r Range) Start() []int {
	s := make([]int, len(r))
	for i, iv := range r {
		s[i] = iv.Start()
	}
	return s
}

// Shape returns the edge lengths of the range.
func (r Range) Shape() []int {
	s := make([]int, len(r))
	for i, iv := range r {
		s[i] = iv.Len()
	}
	return s
}

// Covers reports whether r completely contains other in every dimension.
func (r Range) Covers(other Range) bool {
	if len(r) != len(other) {
		return false
	}
	for i := range r {
		if !r[i].Covers(other[i]) {
			return false
		}
	}
	return true
}

// String renders the range as a cross product of intervals.
func (r Range) String() string {
	s := ""
	for i, iv := range r {
		if i > 0 {
			s += " x "
		}
		s += iv.String()
	}
	return s
}

// Contains reports whether the range covers the given point in every
// dimension.
func (r Range) Contains(point []int) bool {
	if len(point) != len(r) {
		return false
	}
	for i, iv := range r {
		if !iv.Contains(point[i]) {
			return false
		}
	}
	return true
}
