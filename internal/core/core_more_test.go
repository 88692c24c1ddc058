package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/shiftsplit/shiftsplit/internal/haar"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/wavelet"
)

func TestScalingPath1DReconstructsBlockAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for n := 1; n <= 8; n++ {
		a := randVec(rng, 1<<uint(n))
		hat := haar.Transform(a)
		for m := 0; m <= n; m++ {
			for k := 0; k < 1<<uint(n-m); k += 1 + k/2 {
				sum := 0.0
				for _, tgt := range ScalingPath1D(n, m, k) {
					sum += tgt.Weight * hat[tgt.Index]
				}
				want := 0.0
				for i := k << uint(m); i < (k+1)<<uint(m); i++ {
					want += a[i]
				}
				want /= float64(int(1) << uint(m))
				if math.Abs(sum-want) > 1e-8 {
					t.Fatalf("n=%d m=%d k=%d: %g vs %g", n, m, k, sum, want)
				}
			}
		}
	}
}

func TestScalingPath1DLength(t *testing.T) {
	for n := 0; n <= 10; n++ {
		for m := 0; m <= n; m++ {
			if got := len(ScalingPath1D(n, m, 0)); got != n-m+1 {
				t.Errorf("n=%d m=%d: path length %d, want %d", n, m, got, n-m+1)
			}
		}
	}
}

func TestEmbedTargets1DPartition(t *testing.T) {
	// Every target of the embedding must be distinct across detail sources
	// (shift is injective) and the split targets must be disjoint from the
	// shift targets.
	n, m, k := 8, 4, 7
	targets := EmbedTargets1D(n, m, k)
	seenShift := map[int]bool{}
	for idx := 1; idx < len(targets); idx++ {
		tg := targets[idx]
		if len(tg) != 1 {
			t.Fatalf("detail %d has %d targets", idx, len(tg))
		}
		if seenShift[tg[0].Index] {
			t.Fatalf("shift target %d duplicated", tg[0].Index)
		}
		seenShift[tg[0].Index] = true
	}
	for _, tg := range targets[0] {
		if seenShift[tg.Index] {
			t.Fatalf("split target %d collides with a shift target", tg.Index)
		}
	}
}

func TestSplitWeightsSumMatchesEnergy(t *testing.T) {
	// Reconstructing the padded block from the embedding must give back b's
	// values: check one representative entry via full inversion.
	n, m, k := 6, 3, 5
	bHat := make([]float64, 1<<uint(m))
	bHat[0] = 4.0 // a constant block of value 4
	aHat := make([]float64, 1<<uint(n))
	merge1D(aHat, bHat, k)
	a := haar.Inverse(aHat)
	for i := range a {
		want := 0.0
		if i >= k<<uint(m) && i < (k+1)<<uint(m) {
			want = 4.0
		}
		if math.Abs(a[i]-want) > 1e-9 {
			t.Fatalf("position %d: %g, want %g", i, a[i], want)
		}
	}
}

func TestQuickScalingStandardRandomBlocks(t *testing.T) {
	f := func(seed int64, l0, l1, p0, p1 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randArray(rng, 16, 16)
		aHat := wavelet.TransformStandard(a)
		lev0, lev1 := int(l0)%5, int(l1)%5
		block := blockOf(
			[]int{lev0, lev1},
			[]int{int(p0) % (16 >> uint(lev0)), int(p1) % (16 >> uint(lev1))},
		)
		got := ScalingStandard(aHat, block)
		want := a.SumRange(block.Start(), block.Shape()) / float64(block.Volume())
		return math.Abs(got-want) <= 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickExtractNonStandardRandom(t *testing.T) {
	f := func(seed int64, mRaw, p0, p1 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randArray(rng, 8, 8)
		aHat := wavelet.TransformNonStandard(a)
		m := int(mRaw) % 4
		side := 8 >> uint(m)
		pos := []int{int(p0) % side, int(p1) % side}
		got := ExtractNonStandard(aHat, m, pos)
		start := []int{pos[0] << uint(m), pos[1] << uint(m)}
		want := wavelet.TransformNonStandard(a.SubCopy(start, []int{1 << uint(m), 1 << uint(m)}))
		return got.EqualApprox(want, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMergeSingleCellBlocksEverywhere(t *testing.T) {
	// Level-0 blocks are single cells: merging one per cell must rebuild
	// the whole transform.
	rng := rand.New(rand.NewSource(21))
	a := randArray(rng, 4, 8)
	want := wavelet.TransformStandard(a)
	got := ndarray.New(4, 8)
	cell := ndarray.New(1, 1)
	a.Each(func(coords []int, v float64) {
		cell.Set(v, 0, 0)
		MergeStandard(got, blockOf([]int{0, 0}, coords), wavelet.TransformStandard(cell))
	})
	if !got.EqualApprox(want, 1e-8) {
		t.Errorf("cell-by-cell merge differs by %g", got.MaxAbsDiff(want))
	}
}

func TestCountsMatchPaperFormulasAcrossSweep(t *testing.T) {
	for _, c := range []struct{ n, m, d int }{{6, 2, 1}, {6, 3, 2}, {4, 2, 3}, {5, 0, 2}} {
		shape := make([]int, c.d)
		levels := make([]int, c.d)
		pos := make([]int, c.d)
		for i := range shape {
			shape[i] = 1 << uint(c.n)
			levels[i] = c.m
		}
		block := blockOf(levels, pos)
		M := 1 << uint(c.m)
		wantShift := 1
		wantAll := 1
		for i := 0; i < c.d; i++ {
			wantShift *= M - 1
			wantAll *= M + c.n - c.m
		}
		if got := CountShiftStandard(shape, block); got != wantShift {
			t.Errorf("n=%d m=%d d=%d: shift count %d, want %d", c.n, c.m, c.d, got, wantShift)
		}
		if got := CountSplitStandard(shape, block); got != wantAll-wantShift {
			t.Errorf("n=%d m=%d d=%d: split count %d, want %d", c.n, c.m, c.d, got, wantAll-wantShift)
		}
		if got := CountShiftNonStandard(c.d, c.m); got != pow(M, c.d)-1 {
			t.Errorf("non-standard shift count %d", got)
		}
		if got := CountSplitNonStandard(c.d, c.n, c.m); got != (pow(2, c.d)-1)*(c.n-c.m)+1 {
			t.Errorf("non-standard split count %d", got)
		}
	}
}

func pow(b, e int) int {
	r := 1
	for i := 0; i < e; i++ {
		r *= b
	}
	return r
}
