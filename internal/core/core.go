// Package core implements the paper's two novel operations on
// wavelet-transformed data, SHIFT and SPLIT (§4), for one-dimensional
// vectors and for both multidimensional decomposition forms.
//
// Let a be a vector of size N = 2^n and b the (k+1)-th dyadic block of a
// with size M = 2^m. Because the Haar transform is linear, the transform of
// a vector that is zero outside block k equals an embedding of the block's
// own transform b^ into positions of a^:
//
//   - SHIFT re-indexes the M-1 detail coefficients: w_b[j,i] lands at
//     w_a[j, k*2^(m-j) + i] with weight 1; and
//   - SPLIT distributes the block average u_b across the n-m coefficients
//     covering the block (weight +-1/2^(j-m) at level j, positive when the
//     block lies in the left half of the coefficient's support) plus the
//     overall average (weight 1/2^(n-m)).
//
// The same embedding applied with addition turns a batch of updates into a
// transform-domain merge (Example 2), and its inverse extracts the exact
// transform of a dyadic subregion (§5.4). Multidimensional standard-form
// embeddings are tensor products of the one-dimensional embedding;
// non-standard embeddings shift all details and split the single block
// average along the quadtree path to the root.
package core

import (
	"fmt"

	"github.com/shiftsplit/shiftsplit/internal/bitutil"
	"github.com/shiftsplit/shiftsplit/internal/dyadic"
	"github.com/shiftsplit/shiftsplit/internal/haar"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/wavelet"
)

// Target is one destination coefficient of an embedding, identified by flat
// 1-d index, with the weight multiplying the source coefficient.
type Target struct {
	Index  int
	Weight float64
}

// ShiftIndex returns the flat index in the size-2^n transform that the
// detail coefficient at flat index idx (>= 1) of the size-2^m transform of
// dyadic block k maps to (the SHIFT re-indexing function f of §4).
func ShiftIndex(n, m, k, idx int) int {
	if m > n || k < 0 || k >= 1<<uint(n-m) {
		panic(fmt.Sprintf("core: ShiftIndex(n=%d, m=%d, k=%d)", n, m, k))
	}
	j, i := haar.LevelPos(m, idx)
	return haar.Index(n, j, k<<uint(m-j)+i)
}

// SplitTargets returns the n-m+1 weighted targets receiving the block
// average under SPLIT: one detail per level in [m+1, n] plus the overall
// average at index 0 (the function g of §4).
func SplitTargets(n, m, k int) []Target {
	if m > n || k < 0 || k >= 1<<uint(n-m) {
		panic(fmt.Sprintf("core: SplitTargets(n=%d, m=%d, k=%d)", n, m, k))
	}
	out := make([]Target, 0, n-m+1)
	scale := 1.0
	for j := m + 1; j <= n; j++ {
		scale /= 2
		w := scale
		if k>>uint(j-m-1)&1 == 1 { // block in the right half at level j
			w = -w
		}
		out = append(out, Target{Index: haar.Index(n, j, k>>uint(j-m)), Weight: w})
	}
	out = append(out, Target{Index: 0, Weight: scale})
	return out
}

// EmbedTargets1D returns, for every source index of a size-2^m block
// transform, the weighted targets in the size-2^n transform: a single
// shifted position for details, the split fan-out for the average.
func EmbedTargets1D(n, m, k int) [][]Target {
	size := 1 << uint(m)
	out := make([][]Target, size)
	out[0] = SplitTargets(n, m, k)
	for idx := 1; idx < size; idx++ {
		out[idx] = []Target{{Index: ShiftIndex(n, m, k, idx), Weight: 1}}
	}
	return out
}

// ---------------------------------------------------------------------------
// Standard multidimensional form
// ---------------------------------------------------------------------------

// checkBlock validates a dyadic block against a transform shape and returns
// per-dimension (n_t, m_t, k_t).
func checkBlock(shape []int, block dyadic.Range) (n, m, k []int) {
	if len(shape) != block.Dims() {
		panic(fmt.Sprintf("core: block %v for shape %v", block, shape))
	}
	n = make([]int, len(shape))
	m = make([]int, len(shape))
	k = make([]int, len(shape))
	for t, iv := range block {
		n[t] = bitutil.Log2(shape[t])
		m[t] = iv.Level
		k[t] = iv.Pos
		if m[t] > n[t] || k[t] >= 1<<uint(n[t]-m[t]) {
			panic(fmt.Sprintf("core: block %v out of bounds for shape %v", block, shape))
		}
	}
	return n, m, k
}

// EachEmbedStandard enumerates the complete embedding of bHat (the standard
// transform of the block's contents) into a standard transform of the given
// shape, calling visit with target coordinates (reused between calls) and
// the additive delta. Deltas for a common target are NOT merged; callers
// that need per-coefficient totals should accumulate.
func EachEmbedStandard(shape []int, block dyadic.Range, bHat *ndarray.Array, visit func(coords []int, delta float64)) {
	EachEmbedStandardFiltered(shape, block, bHat, visit, false)
}

// EachShiftStandard visits only the pure-SHIFT part of the embedding: source
// coefficients that are details in every dimension, (M_1-1)*...*(M_d-1) of
// them (§4.1), each landing on exactly one target with weight 1.
func EachShiftStandard(shape []int, block dyadic.Range, bHat *ndarray.Array, visit func(coords []int, delta float64)) {
	n, m, k := checkBlock(shape, block)
	d := len(shape)
	coords := make([]int, d)
	bHat.Each(func(src []int, v float64) {
		for t := 0; t < d; t++ {
			if src[t] == 0 {
				return
			}
		}
		for t := 0; t < d; t++ {
			coords[t] = ShiftIndex(n[t], m[t], k[t], src[t])
		}
		visit(coords, v)
	})
}

// EachSplitStandard visits the SPLIT part of the embedding: contributions of
// every source coefficient that is a scaling coefficient in at least one
// dimension, (M + log(N/M))^d - (M-1)^d contributions in the cubic case.
func EachSplitStandard(shape []int, block dyadic.Range, bHat *ndarray.Array, visit func(coords []int, delta float64)) {
	EachEmbedStandardFiltered(shape, block, bHat, visit, true)
}

// EachEmbedStandardFiltered is EachEmbedStandard restricted to sources with
// (splitOnly) or without regard to a zero index in some dimension. It exists
// so that engines can account SHIFT and SPLIT I/O separately while using
// one code path.
func EachEmbedStandardFiltered(shape []int, block dyadic.Range, bHat *ndarray.Array, visit func(coords []int, delta float64), splitOnly bool) {
	n, m, k := checkBlock(shape, block)
	d := len(shape)
	perDim := make([][][]Target, d)
	for t := 0; t < d; t++ {
		perDim[t] = EmbedTargets1D(n[t], m[t], k[t])
	}
	coords := make([]int, d)
	choice := make([]int, d)
	bHat.Each(func(src []int, v float64) {
		if splitOnly {
			hasScaling := false
			for t := 0; t < d; t++ {
				if src[t] == 0 {
					hasScaling = true
					break
				}
			}
			if !hasScaling {
				return
			}
		}
		lists := make([][]Target, d)
		for t := 0; t < d; t++ {
			lists[t] = perDim[t][src[t]]
		}
		for t := range choice {
			choice[t] = 0
		}
		for {
			w := v
			for t := 0; t < d; t++ {
				tt := lists[t][choice[t]]
				coords[t] = tt.Index
				w *= tt.Weight
			}
			visit(coords, w)
			t := d - 1
			for ; t >= 0; t-- {
				choice[t]++
				if choice[t] < len(lists[t]) {
					break
				}
				choice[t] = 0
			}
			if t < 0 {
				break
			}
		}
	})
}

// MergeStandard adds the embedding of bHat at the given dyadic block into
// the standard transform aHat in memory.
func MergeStandard(aHat *ndarray.Array, block dyadic.Range, bHat *ndarray.Array) {
	EachEmbedStandard(aHat.Shape(), block, bHat, func(coords []int, delta float64) {
		aHat.Add(delta, coords...)
	})
}

// ScalingPath1D returns the weighted coefficients of a size-2^n transform
// whose combination yields the scaling coefficient u[m,k] (the inverse
// SPLIT): the overall average plus one +-1-weighted detail per level above m.
func ScalingPath1D(n, m, k int) []Target {
	out := make([]Target, 0, n-m+1)
	out = append(out, Target{Index: 0, Weight: 1})
	for j := n; j > m; j-- {
		w := 1.0
		if k>>uint(j-m-1)&1 == 1 {
			w = -1
		}
		out = append(out, Target{Index: haar.Index(n, j, k>>uint(j-m)), Weight: w})
	}
	return out
}

// ExtractStandard computes the exact standard transform of the contents of
// a dyadic block directly from aHat: inverse SHIFT copies the detail
// tensor positions, inverse SPLIT reconstructs the per-dimension scaling
// components via root paths.
func ExtractStandard(aHat *ndarray.Array, block dyadic.Range) *ndarray.Array {
	shape := aHat.Shape()
	n, m, k := checkBlock(shape, block)
	d := len(shape)
	// Per-dimension source lists: for block-transform index i, the weighted
	// coefficients of aHat along that dimension whose combination yields it.
	perDim := make([][][]Target, d)
	for t := 0; t < d; t++ {
		size := 1 << uint(m[t])
		lists := make([][]Target, size)
		lists[0] = ScalingPath1D(n[t], m[t], k[t])
		for idx := 1; idx < size; idx++ {
			lists[idx] = []Target{{Index: ShiftIndex(n[t], m[t], k[t], idx), Weight: 1}}
		}
		perDim[t] = lists
	}
	out := ndarray.New(block.Shape()...)
	coords := make([]int, d)
	choice := make([]int, d)
	out.Each(func(dst []int, _ float64) {
		lists := make([][]Target, d)
		for t := 0; t < d; t++ {
			lists[t] = perDim[t][dst[t]]
		}
		for t := range choice {
			choice[t] = 0
		}
		sum := 0.0
		for {
			w := 1.0
			for t := 0; t < d; t++ {
				tt := lists[t][choice[t]]
				coords[t] = tt.Index
				w *= tt.Weight
			}
			sum += w * aHat.At(coords...)
			t := d - 1
			for ; t >= 0; t-- {
				choice[t]++
				if choice[t] < len(lists[t]) {
					break
				}
				choice[t] = 0
			}
			if t < 0 {
				break
			}
		}
		out.Set(sum, dst...)
	})
	return out
}

// ScalingStandard returns the average of the original data over a dyadic
// block, reconstructed from the standard transform via the tensor product
// of per-dimension root paths.
func ScalingStandard(aHat *ndarray.Array, block dyadic.Range) float64 {
	shape := aHat.Shape()
	n, m, k := checkBlock(shape, block)
	d := len(shape)
	lists := make([][]Target, d)
	for t := 0; t < d; t++ {
		lists[t] = ScalingPath1D(n[t], m[t], k[t])
	}
	coords := make([]int, d)
	choice := make([]int, d)
	sum := 0.0
	for {
		w := 1.0
		for t := 0; t < d; t++ {
			tt := lists[t][choice[t]]
			coords[t] = tt.Index
			w *= tt.Weight
		}
		sum += w * aHat.At(coords...)
		t := d - 1
		for ; t >= 0; t-- {
			choice[t]++
			if choice[t] < len(lists[t]) {
				break
			}
			choice[t] = 0
		}
		if t < 0 {
			return sum
		}
	}
}

// ---------------------------------------------------------------------------
// Non-standard multidimensional form
// ---------------------------------------------------------------------------

func checkCubicBlock(shape []int, m int, pos []int) (n, d int) {
	d = len(shape)
	if len(pos) != d {
		panic(fmt.Sprintf("core: block pos %v for %d-d transform", pos, d))
	}
	n = bitutil.Log2(shape[0])
	for t := 1; t < d; t++ {
		if shape[t] != shape[0] {
			panic(fmt.Sprintf("core: non-standard transform must be cubic, got %v", shape))
		}
	}
	if m > n {
		panic(fmt.Sprintf("core: block level %d exceeds domain level %d", m, n))
	}
	for t := 0; t < d; t++ {
		if pos[t] < 0 || pos[t] >= 1<<uint(n-m) {
			panic(fmt.Sprintf("core: block pos %v out of range at level %d", pos, m))
		}
	}
	return n, d
}

// EachShiftNonStandard visits the SHIFT part of the non-standard embedding:
// all M^d - 1 detail coefficients of bHat re-indexed into the enclosing
// cubic transform (§4.1). Target coordinates are reused between calls.
func EachShiftNonStandard(shape []int, m int, pos []int, bHat *ndarray.Array, visit func(coords []int, delta float64)) {
	n, d := checkCubicBlock(shape, m, pos)
	coords := make([]int, d)
	bHat.Each(func(src []int, v float64) {
		origin := true
		for t := 0; t < d; t++ {
			if src[t] != 0 {
				origin = false
				break
			}
		}
		if origin {
			return
		}
		j, subband, p := wavelet.NonStdLevel(m, src)
		base := 1 << uint(n-j)
		for t := 0; t < d; t++ {
			coords[t] = pos[t]<<uint(m-j) + p[t]
			if subband[t] {
				coords[t] += base
			}
		}
		visit(coords, v)
	})
}

// EachSplitNonStandard visits the SPLIT part: the block average u feeds the
// (2^d - 1)(n - m) details on the quadtree path above the block plus the
// overall average (§4.1). Target coordinates are reused between calls.
func EachSplitNonStandard(shape []int, m int, pos []int, u float64, visit func(coords []int, delta float64)) {
	n, d := checkCubicBlock(shape, m, pos)
	coords := make([]int, d)
	attn := u
	den := float64(int64(1) << uint(d))
	for j := m + 1; j <= n; j++ {
		attn /= den
		base := 1 << uint(n-j)
		cell := make([]int, d)
		for t := 0; t < d; t++ {
			cell[t] = pos[t] >> uint(j-m)
		}
		for mask := 1; mask < 1<<uint(d); mask++ {
			w := attn
			for t := 0; t < d; t++ {
				coords[t] = cell[t]
				if mask>>uint(t)&1 == 1 {
					coords[t] += base
					if pos[t]>>uint(j-m-1)&1 == 1 {
						w = -w
					}
				}
			}
			visit(coords, w)
		}
	}
	for t := 0; t < d; t++ {
		coords[t] = 0
	}
	visit(coords, attn)
}

// MergeNonStandard adds the embedding of bHat (the non-standard transform
// of a cubic block of edge 2^m at position pos, in block units) into the
// cubic non-standard transform aHat in memory.
func MergeNonStandard(aHat *ndarray.Array, m int, pos []int, bHat *ndarray.Array) {
	EachShiftNonStandard(aHat.Shape(), m, pos, bHat, func(coords []int, delta float64) {
		aHat.Add(delta, coords...)
	})
	origin := make([]int, aHat.Dims())
	EachSplitNonStandard(aHat.Shape(), m, pos, bHat.At(origin...), func(coords []int, delta float64) {
		aHat.Add(delta, coords...)
	})
}

// ScalingNonStandard returns the average of the original data over the
// cubic block at level m, position pos, reconstructed by descending the
// quadtree from the root (the inverse SPLIT).
func ScalingNonStandard(aHat *ndarray.Array, m int, pos []int) float64 {
	n, d := checkCubicBlock(aHat.Shape(), m, pos)
	origin := make([]int, d)
	u := aHat.At(origin...)
	coords := make([]int, d)
	for j := n; j > m; j-- {
		base := 1 << uint(n-j)
		for mask := 1; mask < 1<<uint(d); mask++ {
			w := 1.0
			for t := 0; t < d; t++ {
				coords[t] = pos[t] >> uint(j-m)
				if mask>>uint(t)&1 == 1 {
					coords[t] += base
					if pos[t]>>uint(j-m-1)&1 == 1 {
						w = -w
					}
				}
			}
			u += w * aHat.At(coords...)
		}
	}
	return u
}

// ExtractNonStandard computes the exact non-standard transform of the cubic
// block at level m, position pos, directly from aHat (inverse SHIFT for
// details, inverse SPLIT for the average).
func ExtractNonStandard(aHat *ndarray.Array, m int, pos []int) *ndarray.Array {
	n, d := checkCubicBlock(aHat.Shape(), m, pos)
	edge := 1 << uint(m)
	shape := make([]int, d)
	for t := range shape {
		shape[t] = edge
	}
	out := ndarray.New(shape...)
	coords := make([]int, d)
	out.Each(func(dst []int, _ float64) {
		origin := true
		for t := 0; t < d; t++ {
			if dst[t] != 0 {
				origin = false
				break
			}
		}
		if origin {
			return
		}
		j, subband, p := wavelet.NonStdLevel(m, dst)
		base := 1 << uint(n-j)
		for t := 0; t < d; t++ {
			coords[t] = pos[t]<<uint(m-j) + p[t]
			if subband[t] {
				coords[t] += base
			}
		}
		out.Set(aHat.At(coords...), dst...)
	})
	origin := make([]int, d)
	out.Set(ScalingNonStandard(aHat, m, pos), origin...)
	return out
}

// CountShiftStandard and friends return the exact coefficient counts of §4.1
// for validation against Table 1 and the Result proofs.

// CountShiftStandard returns prod_t (M_t - 1), the coefficients affected by
// a standard-form SHIFT.
func CountShiftStandard(shape []int, block dyadic.Range) int {
	c := 1
	for _, iv := range block {
		c *= iv.Len() - 1
	}
	return c
}

// CountSplitStandard returns prod_t (M_t + n_t - m_t) - prod_t (M_t - 1),
// the contributions calculated by a standard-form SPLIT.
func CountSplitStandard(shape []int, block dyadic.Range) int {
	n, m, _ := checkBlock(shape, block)
	all, shifts := 1, 1
	for t, iv := range block {
		all *= iv.Len() + n[t] - m[t]
		shifts *= iv.Len() - 1
	}
	return all - shifts
}

// CountShiftNonStandard returns M^d - 1.
func CountShiftNonStandard(d, m int) int {
	return bitutil.IntPow(1<<uint(m), d) - 1
}

// CountSplitNonStandard returns (2^d - 1)(n - m) + 1.
func CountSplitNonStandard(d, n, m int) int {
	return (bitutil.Pow2(d)-1)*(n-m) + 1
}
