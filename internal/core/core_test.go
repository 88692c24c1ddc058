package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/shiftsplit/shiftsplit/internal/bitutil"
	"github.com/shiftsplit/shiftsplit/internal/dyadic"
	"github.com/shiftsplit/shiftsplit/internal/haar"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/wavelet"
)

const tol = 1e-9

func randVec(rng *rand.Rand, size int) []float64 {
	v := make([]float64, size)
	for i := range v {
		v[i] = rng.NormFloat64() * 10
	}
	return v
}

func randArray(rng *rand.Rand, shape ...int) *ndarray.Array {
	a := ndarray.New(shape...)
	for i := range a.Data() {
		a.Data()[i] = rng.NormFloat64() * 10
	}
	return a
}

// --- 1-d -------------------------------------------------------------------

// The one-dimensional transform is the d = 1 case of the standard form:
// merge1D and extract1D run MergeStandard and ExtractStandard on it, so the
// paper's 1-d examples below check the d-dimensional kernels at d = 1.

func merge1D(aHat, bHat []float64, k int) {
	block := blockOf([]int{bitutil.Log2(len(bHat))}, []int{k})
	MergeStandard(ndarray.FromSlice(aHat, len(aHat)), block, ndarray.FromSlice(bHat, len(bHat)))
}

func extract1D(aHat []float64, m, k int) []float64 {
	return ExtractStandard(ndarray.FromSlice(aHat, len(aHat)), blockOf([]int{m}, []int{k})).Data()
}

func TestShiftIndexIdentityWhenBlockIsWholeDomain(t *testing.T) {
	for idx := 1; idx < 16; idx++ {
		if got := ShiftIndex(4, 4, 0, idx); got != idx {
			t.Errorf("ShiftIndex(4,4,0,%d) = %d", idx, got)
		}
	}
}

func TestShiftIndexLevelPreserving(t *testing.T) {
	// w_b[j,i] must land on w_a[j, k*2^(m-j)+i] (§4).
	n, m, k := 6, 3, 5
	for j := 1; j <= m; j++ {
		for i := 0; i < 1<<uint(m-j); i++ {
			src := haar.Index(m, j, i)
			want := haar.Index(n, j, k<<uint(m-j)+i)
			if got := ShiftIndex(n, m, k, src); got != want {
				t.Errorf("ShiftIndex(j=%d,i=%d) = %d, want %d", j, i, got, want)
			}
		}
	}
}

func TestShiftPreservesSupport(t *testing.T) {
	// The support of the shifted coefficient inside a must be the support of
	// the source inside b translated by the block start.
	n, m, k := 7, 4, 3
	blockStart := k << uint(m)
	for idx := 1; idx < 1<<uint(m); idx++ {
		src := haar.Support(m, idx)
		dst := haar.Support(n, ShiftIndex(n, m, k, idx))
		if dst.Start() != src.Start()+blockStart || dst.Len() != src.Len() {
			t.Fatalf("support mismatch at idx %d: %v -> %v", idx, src, dst)
		}
	}
}

func TestSplitTargetsCount(t *testing.T) {
	for n := 2; n <= 10; n++ {
		for m := 0; m <= n; m++ {
			got := SplitTargets(n, m, 0)
			if len(got) != n-m+1 {
				t.Errorf("n=%d m=%d: %d targets, want %d", n, m, len(got), n-m+1)
			}
		}
	}
}

func TestSplitTargetsPaperFormula(t *testing.T) {
	// g(j) = +-u/2^(j-m), positive when the block lies in the left half of
	// the level-j coefficient's support.
	n, m, k := 5, 2, 5 // block [20,23]; k=5 = binary 101
	targets := SplitTargets(n, m, k)
	// Levels 3,4,5 then the average.
	wantWeights := []float64{-0.5, 0.25, -0.125, 0.125}
	wantIdx := []int{haar.Index(n, 3, 2), haar.Index(n, 4, 1), haar.Index(n, 5, 0), 0}
	for i := range wantWeights {
		if targets[i].Index != wantIdx[i] || math.Abs(targets[i].Weight-wantWeights[i]) > tol {
			t.Fatalf("target %d = %+v, want idx %d weight %g", i, targets[i], wantIdx[i], wantWeights[i])
		}
	}
}

func TestMerge1DEqualsPaddedTransform(t *testing.T) {
	// Example 1: transform of a vector that is zero outside one dyadic block.
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 8; n++ {
		for m := 0; m <= n; m++ {
			k := rng.Intn(1 << uint(n-m))
			b := randVec(rng, 1<<uint(m))
			padded := make([]float64, 1<<uint(n))
			copy(padded[k<<uint(m):], b)
			want := haar.Transform(padded)
			got := make([]float64, 1<<uint(n))
			merge1D(got, haar.Transform(b), k)
			for i := range want {
				if math.Abs(got[i]-want[i]) > tol {
					t.Fatalf("n=%d m=%d k=%d: coefficient %d = %g, want %g", n, m, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestMerge1DBatchUpdate(t *testing.T) {
	// Example 2: merging the transform of a delta block updates the
	// transform as if the original data had been updated.
	rng := rand.New(rand.NewSource(2))
	n, m, k := 7, 4, 5
	a := randVec(rng, 1<<uint(n))
	delta := randVec(rng, 1<<uint(m))
	aHat := haar.Transform(a)
	merge1D(aHat, haar.Transform(delta), k)
	updated := append([]float64(nil), a...)
	for i, dv := range delta {
		updated[k<<uint(m)+i] += dv
	}
	want := haar.Transform(updated)
	for i := range want {
		if math.Abs(aHat[i]-want[i]) > tol {
			t.Fatalf("coefficient %d: %g vs %g", i, aHat[i], want[i])
		}
	}
}

func TestExtract1DIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 1; n <= 8; n++ {
		a := randVec(rng, 1<<uint(n))
		aHat := haar.Transform(a)
		for m := 0; m <= n; m++ {
			k := rng.Intn(1 << uint(n-m))
			got := extract1D(aHat, m, k)
			want := haar.Transform(a[k<<uint(m) : (k+1)<<uint(m)])
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-8 {
					t.Fatalf("n=%d m=%d k=%d coefficient %d: %g vs %g", n, m, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestMergeExtractRoundTrip1D(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n, m, k := 6, 3, 2
	b := randVec(rng, 1<<uint(m))
	bHat := haar.Transform(b)
	aHat := make([]float64, 1<<uint(n))
	merge1D(aHat, bHat, k)
	back := extract1D(aHat, m, k)
	for i := range bHat {
		if math.Abs(back[i]-bHat[i]) > tol {
			t.Fatalf("round trip differs at %d", i)
		}
	}
}

// --- standard multidimensional ---------------------------------------------

func blockOf(levels, pos []int) dyadic.Range {
	r := make(dyadic.Range, len(levels))
	for i := range levels {
		r[i] = dyadic.NewInterval(levels[i], pos[i])
	}
	return r
}

func TestMergeStandardEqualsPaddedTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct {
		shape  []int
		levels []int
		pos    []int
	}{
		{[]int{16}, []int{2}, []int{3}},
		{[]int{8, 8}, []int{2, 1}, []int{1, 3}},
		{[]int{8, 16}, []int{3, 2}, []int{0, 2}},
		{[]int{4, 4, 4}, []int{1, 1, 1}, []int{1, 0, 1}},
		{[]int{8, 8}, []int{3, 3}, []int{0, 0}}, // whole domain
		{[]int{8, 8}, []int{0, 0}, []int{5, 6}}, // single cell
	}
	for _, c := range cases {
		block := blockOf(c.levels, c.pos)
		b := randArray(rng, block.Shape()...)
		padded := ndarray.New(c.shape...)
		padded.SubPaste(b, block.Start())
		want := wavelet.TransformStandard(padded)
		got := ndarray.New(c.shape...)
		MergeStandard(got, block, wavelet.TransformStandard(b))
		if !got.EqualApprox(want, 1e-8) {
			t.Errorf("shape %v block %v: max diff %g", c.shape, block, got.MaxAbsDiff(want))
		}
	}
}

func TestMergeStandardBatchUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	shape := []int{16, 8}
	block := blockOf([]int{2, 1}, []int{1, 2})
	a := randArray(rng, shape...)
	delta := randArray(rng, block.Shape()...)
	aHat := wavelet.TransformStandard(a)
	MergeStandard(aHat, block, wavelet.TransformStandard(delta))
	updated := a.Clone()
	updated.SubAdd(delta, block.Start())
	if !aHat.EqualApprox(wavelet.TransformStandard(updated), 1e-8) {
		t.Error("batch update via MergeStandard differs from re-transform")
	}
}

func TestExtractStandardIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shape := []int{16, 8}
	a := randArray(rng, shape...)
	aHat := wavelet.TransformStandard(a)
	for trial := 0; trial < 20; trial++ {
		levels := []int{rng.Intn(5), rng.Intn(4)}
		pos := []int{rng.Intn(16 >> uint(levels[0])), rng.Intn(8 >> uint(levels[1]))}
		block := blockOf(levels, pos)
		got := ExtractStandard(aHat, block)
		want := wavelet.TransformStandard(a.SubCopy(block.Start(), block.Shape()))
		if !got.EqualApprox(want, 1e-7) {
			t.Fatalf("block %v: max diff %g", block, got.MaxAbsDiff(want))
		}
	}
}

func TestScalingStandardIsBlockAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	shape := []int{8, 16}
	a := randArray(rng, shape...)
	aHat := wavelet.TransformStandard(a)
	for trial := 0; trial < 20; trial++ {
		levels := []int{rng.Intn(4), rng.Intn(5)}
		pos := []int{rng.Intn(8 >> uint(levels[0])), rng.Intn(16 >> uint(levels[1]))}
		block := blockOf(levels, pos)
		want := a.SumRange(block.Start(), block.Shape()) / float64(block.Volume())
		if got := ScalingStandard(aHat, block); math.Abs(got-want) > 1e-8 {
			t.Fatalf("block %v: %g vs %g", block, got, want)
		}
	}
}

func TestShiftSplitStandardCounts(t *testing.T) {
	shape := []int{16, 16}
	block := blockOf([]int{2, 2}, []int{1, 2})
	b := ndarray.New(block.Shape()...)
	b.Fill(1)
	bHat := wavelet.TransformStandard(b)

	shifts := 0
	EachShiftStandard(shape, block, bHat, func([]int, float64) { shifts++ })
	if want := CountShiftStandard(shape, block); shifts != want {
		t.Errorf("shift visits %d, want %d", shifts, want)
	}
	splits := 0
	EachSplitStandard(shape, block, bHat, func([]int, float64) { splits++ })
	if want := CountSplitStandard(shape, block); splits != want {
		t.Errorf("split visits %d, want %d", splits, want)
	}
	// Paper §4.1: shift affects (M-1)^d, split (M+n-m)^d - (M-1)^d.
	if CountShiftStandard(shape, block) != 3*3 {
		t.Errorf("CountShiftStandard = %d", CountShiftStandard(shape, block))
	}
	if CountSplitStandard(shape, block) != (4+2)*(4+2)-9 {
		t.Errorf("CountSplitStandard = %d", CountSplitStandard(shape, block))
	}
}

func TestEachEmbedStandardCoversShiftPlusSplit(t *testing.T) {
	shape := []int{8, 8}
	block := blockOf([]int{1, 1}, []int{2, 1})
	b := ndarray.New(block.Shape()...)
	b.Fill(1)
	bHat := wavelet.TransformStandard(b)
	all, shift, split := 0, 0, 0
	EachEmbedStandard(shape, block, bHat, func([]int, float64) { all++ })
	EachShiftStandard(shape, block, bHat, func([]int, float64) { shift++ })
	EachSplitStandard(shape, block, bHat, func([]int, float64) { split++ })
	if all != shift+split {
		t.Errorf("embed %d != shift %d + split %d", all, shift, split)
	}
}

// --- non-standard multidimensional ------------------------------------------

func TestMergeNonStandardEqualsPaddedTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cases := []struct {
		n, d, m int
	}{
		{3, 2, 1}, {3, 2, 2}, {3, 2, 0}, {3, 2, 3},
		{2, 3, 1}, {3, 1, 1}, {4, 2, 2},
	}
	for _, c := range cases {
		edgeA := 1 << uint(c.n)
		shapeA := make([]int, c.d)
		for i := range shapeA {
			shapeA[i] = edgeA
		}
		edgeB := 1 << uint(c.m)
		shapeB := make([]int, c.d)
		for i := range shapeB {
			shapeB[i] = edgeB
		}
		pos := make([]int, c.d)
		start := make([]int, c.d)
		for i := range pos {
			pos[i] = rng.Intn(1 << uint(c.n-c.m))
			start[i] = pos[i] << uint(c.m)
		}
		b := randArray(rng, shapeB...)
		padded := ndarray.New(shapeA...)
		padded.SubPaste(b, start)
		want := wavelet.TransformNonStandard(padded)
		got := ndarray.New(shapeA...)
		MergeNonStandard(got, c.m, pos, wavelet.TransformNonStandard(b))
		if !got.EqualApprox(want, 1e-8) {
			t.Errorf("n=%d d=%d m=%d pos=%v: max diff %g", c.n, c.d, c.m, pos, got.MaxAbsDiff(want))
		}
	}
}

func TestMergeNonStandardBatchUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randArray(rng, 8, 8)
	delta := randArray(rng, 2, 2)
	pos := []int{2, 1}
	aHat := wavelet.TransformNonStandard(a)
	MergeNonStandard(aHat, 1, pos, wavelet.TransformNonStandard(delta))
	updated := a.Clone()
	updated.SubAdd(delta, []int{4, 2})
	if !aHat.EqualApprox(wavelet.TransformNonStandard(updated), 1e-8) {
		t.Error("non-standard batch update differs from re-transform")
	}
}

func TestExtractNonStandardIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randArray(rng, 16, 16)
	aHat := wavelet.TransformNonStandard(a)
	for m := 0; m <= 4; m++ {
		pos := []int{rng.Intn(1 << uint(4-m)), rng.Intn(1 << uint(4-m))}
		start := []int{pos[0] << uint(m), pos[1] << uint(m)}
		got := ExtractNonStandard(aHat, m, pos)
		want := wavelet.TransformNonStandard(a.SubCopy(start, []int{1 << uint(m), 1 << uint(m)}))
		if !got.EqualApprox(want, 1e-7) {
			t.Fatalf("m=%d pos=%v: max diff %g", m, pos, got.MaxAbsDiff(want))
		}
	}
}

func TestScalingNonStandardIsBlockAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randArray(rng, 8, 8, 8)
	aHat := wavelet.TransformNonStandard(a)
	for m := 0; m <= 3; m++ {
		side := 1 << uint(3-m)
		pos := []int{rng.Intn(side), rng.Intn(side), rng.Intn(side)}
		start := []int{pos[0] << uint(m), pos[1] << uint(m), pos[2] << uint(m)}
		shape := []int{1 << uint(m), 1 << uint(m), 1 << uint(m)}
		want := a.SumRange(start, shape) / float64(int(1)<<uint(3*m))
		if got := ScalingNonStandard(aHat, m, pos); math.Abs(got-want) > 1e-8 {
			t.Fatalf("m=%d pos=%v: %g vs %g", m, pos, got, want)
		}
	}
}

func TestShiftSplitNonStandardCounts(t *testing.T) {
	aHat := ndarray.New(16, 16)
	b := ndarray.New(4, 4)
	b.Fill(1)
	bHat := wavelet.TransformNonStandard(b)
	pos := []int{1, 2}

	shifts := 0
	EachShiftNonStandard(aHat.Shape(), 2, pos, bHat, func([]int, float64) { shifts++ })
	if want := CountShiftNonStandard(2, 2); shifts != want {
		t.Errorf("shift visits %d, want %d", shifts, want)
	}
	splits := 0
	EachSplitNonStandard(aHat.Shape(), 2, pos, 1.0, func([]int, float64) { splits++ })
	if want := CountSplitNonStandard(2, 4, 2); splits != want {
		t.Errorf("split visits %d, want %d", splits, want)
	}
	// Paper §4.1: M^d - 1 = 15 shifts, (2^d-1)(n-m)+1 = 7 splits.
	if shifts != 15 || splits != 7 {
		t.Errorf("shifts=%d splits=%d, want 15 and 7", shifts, splits)
	}
}

// --- property tests ----------------------------------------------------------

func TestQuickmerge1D(t *testing.T) {
	f := func(seed int64, mRaw, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 7
		m := int(mRaw) % (n + 1)
		k := int(kRaw) % (1 << uint(n-m))
		b := randVec(rng, 1<<uint(m))
		padded := make([]float64, 1<<uint(n))
		copy(padded[k<<uint(m):], b)
		want := haar.Transform(padded)
		got := make([]float64, 1<<uint(n))
		merge1D(got, haar.Transform(b), k)
		for i := range want {
			if math.Abs(got[i]-want[i]) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickExtractInvertsMerge2D(t *testing.T) {
	f := func(seed int64, lRaw, p0, p1 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		level := int(lRaw) % 3
		side := 8 >> uint(level)
		block := blockOf([]int{level, level}, []int{int(p0) % side, int(p1) % side})
		b := randArray(rng, block.Shape()...)
		bHat := wavelet.TransformStandard(b)
		aHat := ndarray.New(8, 8)
		MergeStandard(aHat, block, bHat)
		return ExtractStandard(aHat, block).EqualApprox(bHat, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestQuickMergeCommutes(t *testing.T) {
	// Merging two disjoint blocks in either order yields the same transform.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b1 := randArray(rng, 4, 4)
		b2 := randArray(rng, 4, 4)
		blk1 := blockOf([]int{2, 2}, []int{0, 1})
		blk2 := blockOf([]int{2, 2}, []int{1, 0})
		h1, h2 := wavelet.TransformStandard(b1), wavelet.TransformStandard(b2)
		x := ndarray.New(8, 8)
		MergeStandard(x, blk1, h1)
		MergeStandard(x, blk2, h2)
		y := ndarray.New(8, 8)
		MergeStandard(y, blk2, h2)
		MergeStandard(y, blk1, h1)
		return x.EqualApprox(y, tol)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickNonStandardMergeAdditive(t *testing.T) {
	// Merging every block of a partition reconstructs the full transform.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randArray(rng, 8, 8)
		want := wavelet.TransformNonStandard(a)
		got := ndarray.New(8, 8)
		for p0 := 0; p0 < 2; p0++ {
			for p1 := 0; p1 < 2; p1++ {
				sub := a.SubCopy([]int{p0 * 4, p1 * 4}, []int{4, 4})
				MergeNonStandard(got, 2, []int{p0, p1}, wavelet.TransformNonStandard(sub))
			}
		}
		return got.EqualApprox(want, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
