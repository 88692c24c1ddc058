package query

import (
	"math"
	"math/rand"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/synopsis"
	"github.com/shiftsplit/shiftsplit/internal/wavelet"
)

func TestProgressiveRangeSumConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := dataset.Dense([]int{32, 32}, 1)
	st := materializedStandard(t, src, 2)
	shape := []int{32, 32}
	for trial := 0; trial < 30; trial++ {
		s := []int{rng.Intn(32), rng.Intn(32)}
		sh := []int{1 + rng.Intn(32-s[0]), 1 + rng.Intn(32-s[1])}
		steps, err := ProgressiveRangeSum(st, shape, s, sh)
		if err != nil {
			t.Fatal(err)
		}
		if len(steps) == 0 {
			t.Fatal("no steps")
		}
		exact := src.SumRange(s, sh)
		last := steps[len(steps)-1]
		if math.Abs(last.Estimate-exact) > 1e-6 {
			t.Fatalf("final estimate %g, exact %g", last.Estimate, exact)
		}
		// Cumulative counters must be monotone.
		for i := 1; i < len(steps); i++ {
			if steps[i].Coefficients != steps[i-1].Coefficients+1 {
				t.Fatal("coefficient counter not incremental")
			}
			if steps[i].Blocks < steps[i-1].Blocks {
				t.Fatal("block counter went backwards")
			}
		}
	}
}

func TestProgressiveCoarseStepsCarrySignal(t *testing.T) {
	// On a smooth dataset the first (coarsest) steps should already be a
	// decent approximation for a large box: relative error after 25% of the
	// coefficients should be far below the trivial estimate's error.
	src := dataset.Dense([]int{64, 64}, 2)
	// Shift values to be positive so relative error is meaningful.
	for i := range src.Data() {
		src.Data()[i] += 10
	}
	st := materializedStandard(t, src, 2)
	start, extent := []int{8, 8}, []int{40, 48}
	steps, err := ProgressiveRangeSum(st, []int{64, 64}, start, extent)
	if err != nil {
		t.Fatal(err)
	}
	exact := src.SumRange(start, extent)
	quarter := steps[len(steps)/4]
	relErr := math.Abs(quarter.Estimate-exact) / math.Abs(exact)
	if relErr > 0.2 {
		t.Errorf("after 25%% of coefficients relative error is %.3f", relErr)
	}
}

func TestApproximateRangeSumFromCompressed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := dataset.Dense([]int{32, 32}, 4)
	for i := range src.Data() {
		src.Data()[i] += 5
	}
	hat := wavelet.TransformStandard(src)
	exactHat := synopsis.Compress(hat, wavelet.Standard, 0)
	small := synopsis.Compress(hat, wavelet.Standard, 64)

	worstSmall := 0.0
	for trial := 0; trial < 30; trial++ {
		s := []int{rng.Intn(16), rng.Intn(16)}
		sh := []int{8 + rng.Intn(8), 8 + rng.Intn(8)}
		exact := src.SumRange(s, sh)
		full := wavelet.RangeSumStandard(exactHat.Transform(), s, sh)
		if math.Abs(full-exact) > 1e-6 {
			t.Fatalf("lossless synopsis answered %g, exact %g", full, exact)
		}
		approx := wavelet.RangeSumStandard(small.Transform(), s, sh)
		rel := math.Abs(approx-exact) / (1 + math.Abs(exact))
		if rel > worstSmall {
			worstSmall = rel
		}
	}
	// 64 of 1024 coefficients on a smooth dataset: small relative error.
	if worstSmall > 0.25 {
		t.Errorf("64-term synopsis worst relative error %.3f", worstSmall)
	}
}
