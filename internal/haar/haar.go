// Package haar implements the one-dimensional unnormalized Haar discrete
// wavelet transform used throughout the paper: at each level of
// decomposition consecutive pairs are replaced by their average (a+b)/2 and
// half-difference (a-b)/2 (paper §2.1).
//
// # Layout
//
// A transformed vector of size N = 2^n stores the overall average u[n,0] at
// index 0 followed by the detail coefficients sorted decreasing by level and
// increasing by position:
//
//	index 0:             u[n,0]
//	index 2^(n-j) + k:   w[j,k]   for 1 <= j <= n, 0 <= k < 2^(n-j)
//
// so w[n,0] sits at index 1, w[n-1,*] at 2..3, and the finest level w[1,*]
// occupies the upper half. This is the classical error-tree order and the
// order assumed by the SHIFT and SPLIT operations in internal/core.
package haar

import (
	"fmt"

	"github.com/shiftsplit/shiftsplit/internal/bitutil"
	"github.com/shiftsplit/shiftsplit/internal/dyadic"
)

// Levels returns n = log2(N) for a vector of power-of-two length N.
func Levels(n int) int { return bitutil.Log2(n) }

// Index returns the flat position of the detail coefficient w[j,k] in the
// transform of a vector of size 2^n. The scaling coefficient u[n,0] is at
// index 0 and has no (j,k) form here.
func Index(n, j, k int) int {
	if j < 1 || j > n || k < 0 || k >= 1<<uint(n-j) {
		panic(fmt.Sprintf("haar: Index(n=%d, j=%d, k=%d) out of range", n, j, k))
	}
	return 1<<uint(n-j) + k
}

// LevelPos is the inverse of Index: it maps a flat position (>= 1) back to
// the level j and translation k of the detail coefficient stored there.
func LevelPos(n, idx int) (j, k int) {
	if idx < 1 || idx >= 1<<uint(n) {
		panic(fmt.Sprintf("haar: LevelPos(n=%d, idx=%d) out of range", n, idx))
	}
	j = n - bitutil.FloorLog2(idx)
	k = idx - 1<<uint(n-j)
	return j, k
}

// Support returns the support interval (Definition 1) of the coefficient at
// flat index idx in a transform of size 2^n. Index 0 (the overall average)
// has support over the whole domain.
func Support(n, idx int) dyadic.Interval {
	if idx == 0 {
		return dyadic.NewInterval(n, 0)
	}
	j, k := LevelPos(n, idx)
	return dyadic.NewInterval(j, k)
}

// Transform returns the Haar DWT of a, whose length must be a power of two.
// The input is not modified.
func Transform(a []float64) []float64 {
	n := bitutil.Log2(len(a))
	hat := make([]float64, len(a))
	cur := append([]float64(nil), a...)
	for j := 1; j <= n; j++ {
		half := len(cur) / 2
		next := make([]float64, half)
		base := 1 << uint(n-j)
		for k := 0; k < half; k++ {
			next[k] = (cur[2*k] + cur[2*k+1]) / 2
			hat[base+k] = (cur[2*k] - cur[2*k+1]) / 2
		}
		cur = next
	}
	hat[0] = cur[0]
	return hat
}

// Inverse reconstructs the original vector from its Haar transform.
// The input is not modified.
func Inverse(hat []float64) []float64 {
	n := bitutil.Log2(len(hat))
	cur := []float64{hat[0]}
	for j := n; j >= 1; j-- {
		base := 1 << uint(n-j)
		next := make([]float64, 2*len(cur))
		for k := range cur {
			w := hat[base+k]
			next[2*k] = cur[k] + w
			next[2*k+1] = cur[k] - w
		}
		cur = next
	}
	return cur
}

// Coef is a coefficient reference with the weight it contributes to a
// particular reconstruction or query.
type Coef struct {
	Index  int
	Weight float64
}

// PointPath returns, for a vector of size 2^n, the n+1 coefficients that
// reconstruct a[i] (Lemma 1) together with their +-1 weights: a[i] equals
// the weighted sum of the referenced transform entries.
func PointPath(n, i int) []Coef {
	if i < 0 || i >= 1<<uint(n) {
		panic(fmt.Sprintf("haar: PointPath(n=%d, i=%d) out of range", n, i))
	}
	path := make([]Coef, 0, n+1)
	path = append(path, Coef{Index: 0, Weight: 1})
	for j := 1; j <= n; j++ {
		k := i >> uint(j)
		w := 1.0
		if i>>uint(j-1)&1 == 1 { // right child at level j-1
			w = -1.0
		}
		path = append(path, Coef{Index: Index(n, j, k), Weight: w})
	}
	return path
}

// PrefixSumCoefs returns the weighted coefficients whose combination yields
// the prefix sum S(t) = a[0] + ... + a[t-1], for 0 <= t <= 2^n. At most
// n+1 coefficients are referenced (the overall average plus one detail per
// level along the boundary path), which is what makes range sums answerable
// with O(log N) coefficients (Lemma 2).
func PrefixSumCoefs(n, t int) []Coef {
	if t < 0 || t > 1<<uint(n) {
		panic(fmt.Sprintf("haar: PrefixSumCoefs(n=%d, t=%d) out of range", n, t))
	}
	var out []Coef
	if t == 0 {
		return out
	}
	out = append(out, Coef{Index: 0, Weight: float64(t)})
	for j := 1; j <= n; j++ {
		size := 1 << uint(j)
		k := t / size
		o := t % size
		if o == 0 || k >= 1<<uint(n-j) {
			continue
		}
		half := size / 2
		// w[j,k] contributes +w to the first half of its support and -w to
		// the second; a prefix ending o cells into the support picks up
		// min(o,half) - max(0, o-half) copies.
		weight := float64(bitutil.Min(o, half) - bitutil.Max(0, o-half))
		if weight != 0 {
			out = append(out, Coef{Index: Index(n, j, k), Weight: weight})
		}
	}
	return out
}

// Overlap returns, for the half-open interval [s, e) and the level-j dyadic
// cell k (the support [k*2^j, (k+1)*2^j) of w[j,k], j >= 1), the overlap
// length T = |[s,e) ∩ cell| and the signed half difference
// D = |[s,e) ∩ left half| - |[s,e) ∩ right half|. The sum of a over [s, e)
// picks up w[j,k] exactly D times (Lemma 2 in closed form), and D is nonzero
// only for the at most two cells per level that contain an end of the
// interval; for the one-element interval it is the Lemma-1 sign.
func Overlap(s, e, j, k int) (t, d int) {
	lo, hi := k<<uint(j), (k+1)<<uint(j)
	a, b := bitutil.Max(s, lo), bitutil.Min(e, hi)
	if a >= b {
		return 0, 0
	}
	mid := (lo + hi) / 2
	left := bitutil.Max(0, bitutil.Min(b, mid)-a)
	right := bitutil.Max(0, b-bitutil.Max(a, mid))
	return b - a, left - right
}

// RangeSumCoefs returns the weighted coefficients answering the range sum
// a[l] + ... + a[r]: the overall average weighted by the extent, then the
// details whose Overlap D is nonzero, by descending level (left edge cell
// before right edge cell within a level). By Lemma 2 at most 2n+1
// coefficients appear. The order is fixed, so a caller folding the list
// sums in the same floating-point order on every call.
func RangeSumCoefs(n, l, r int) []Coef {
	return AppendRangeSumCoefs(make([]Coef, 0, 2*n+1), n, l, r)
}

// AppendRangeSumCoefs is RangeSumCoefs appending to dst, for callers that
// reuse the slice.
func AppendRangeSumCoefs(dst []Coef, n, l, r int) []Coef {
	if l < 0 || r < l || r >= 1<<uint(n) {
		panic(fmt.Sprintf("haar: RangeSumCoefs(n=%d, l=%d, r=%d) invalid", n, l, r))
	}
	e := r + 1
	dst = append(dst, Coef{Index: 0, Weight: float64(e - l)})
	for j := n; j >= 1; j-- {
		base := 1 << uint(n-j)
		kl, kr := l>>uint(j), r>>uint(j)
		if _, d := Overlap(l, e, j, kl); d != 0 {
			dst = append(dst, Coef{Index: base + kl, Weight: float64(d)})
		}
		if kr == kl {
			continue
		}
		if _, d := Overlap(l, e, j, kr); d != 0 {
			dst = append(dst, Coef{Index: base + kr, Weight: float64(d)})
		}
	}
	return dst
}

// RangeSum evaluates a[l] + ... + a[r] directly from the transform.
func RangeSum(hat []float64, l, r int) float64 {
	n := bitutil.Log2(len(hat))
	sum := 0.0
	for _, c := range RangeSumCoefs(n, l, r) {
		sum += c.Weight * hat[c.Index]
	}
	return sum
}

// ScalingAt returns the scaling coefficient u[j,k] of the original vector,
// i.e. the average of the dyadic block I[j,k], computed from the transform
// by walking down from the root in n-j steps.
func ScalingAt(hat []float64, j, k int) float64 {
	n := bitutil.Log2(len(hat))
	if j < 0 || j > n || k < 0 || k >= 1<<uint(n-j) {
		panic(fmt.Sprintf("haar: ScalingAt(j=%d, k=%d) out of range for n=%d", j, k, n))
	}
	u := hat[0]
	for level := n; level > j; level-- {
		idx := Index(n, level, k>>uint(level-j))
		if k>>uint(level-j-1)&1 == 0 {
			u += hat[idx]
		} else {
			u -= hat[idx]
		}
	}
	return u
}

// TransformInto computes the Haar transform of src into dst (both length
// 2^n) using scratch for intermediates, without allocating. scratch must be
// at least half the input length. It exists for hot paths (streaming,
// chunked engines) where per-call allocation in Transform would dominate.
func TransformInto(dst, src, scratch []float64) {
	n := bitutil.Log2(len(src))
	if len(dst) != len(src) {
		panic(fmt.Sprintf("haar: TransformInto dst length %d, src %d", len(dst), len(src)))
	}
	if len(scratch) < len(src)/2 {
		panic(fmt.Sprintf("haar: TransformInto scratch %d, need %d", len(scratch), len(src)/2))
	}
	if n == 0 {
		dst[0] = src[0]
		return
	}
	// First level reads src; later levels ping-pong between dst's low
	// region and scratch.
	half := len(src) / 2
	base := 1 << uint(n-1)
	for k := 0; k < half; k++ {
		scratch[k] = (src[2*k] + src[2*k+1]) / 2
		dst[base+k] = (src[2*k] - src[2*k+1]) / 2
	}
	cur := scratch[:half]
	for j := 2; j <= n; j++ {
		half /= 2
		base = 1 << uint(n-j)
		for k := 0; k < half; k++ {
			dst[base+k] = (cur[2*k] - cur[2*k+1]) / 2
			cur[k] = (cur[2*k] + cur[2*k+1]) / 2
		}
		cur = cur[:half]
	}
	dst[0] = cur[0]
}

// InverseInto reconstructs the original vector from hat into dst without
// allocating; scratch must be at least half the length.
func InverseInto(dst, hat, scratch []float64) {
	n := bitutil.Log2(len(hat))
	if len(dst) != len(hat) {
		panic(fmt.Sprintf("haar: InverseInto dst length %d, hat %d", len(dst), len(hat)))
	}
	if len(scratch) < len(hat)/2 {
		panic(fmt.Sprintf("haar: InverseInto scratch %d, need %d", len(scratch), len(hat)/2))
	}
	if n == 0 {
		dst[0] = hat[0]
		return
	}
	cur := scratch[:1]
	cur[0] = hat[0]
	for j := n; j >= 2; j-- {
		base := 1 << uint(n-j)
		size := base
		// Expand cur (length size) into the next 2*size averages in place
		// within scratch (backwards to avoid overwrite).
		for k := size - 1; k >= 0; k-- {
			u, w := cur[k], hat[base+k]
			scratch[2*k] = u + w
			scratch[2*k+1] = u - w
		}
		cur = scratch[:2*size]
	}
	// Final level writes dst directly.
	base := 1 << uint(n-1)
	for k := 0; k < base; k++ {
		u, w := cur[k], hat[base+k]
		dst[2*k] = u + w
		dst[2*k+1] = u - w
	}
}
