package dataset

import (
	"math"
	"math/rand"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/ndarray"
)

func TestTemperatureDeterministic(t *testing.T) {
	shape := []int{8, 8, 4, 16}
	a := Temperature(shape, 7)
	b := Temperature(shape, 7)
	if !a.EqualApprox(b, 0) {
		t.Error("same seed should give identical cubes")
	}
	c := Temperature(shape, 8)
	if a.EqualApprox(c, 1e-12) {
		t.Error("different seeds should differ")
	}
}

func TestTemperaturePhysicalShape(t *testing.T) {
	shape := []int{16, 8, 8, 8}
	a := Temperature(shape, 1)
	// Equatorial cells should on average be warmer than polar cells,
	// and low altitude warmer than high altitude.
	avgRegion := func(start, sh []int) float64 {
		return a.SumRange(start, sh) / float64(sh[0]*sh[1]*sh[2]*sh[3])
	}
	equator := avgRegion([]int{0, 0, 0, 0}, []int{2, 8, 8, 8})
	pole := avgRegion([]int{14, 0, 0, 0}, []int{2, 8, 8, 8})
	if equator <= pole {
		t.Errorf("equator %g should exceed pole %g", equator, pole)
	}
	low := avgRegion([]int{0, 0, 0, 0}, []int{16, 8, 1, 8})
	high := avgRegion([]int{0, 0, 7, 0}, []int{16, 8, 1, 8})
	if low <= high {
		t.Errorf("low altitude %g should exceed high altitude %g", low, high)
	}
}

func TestTemperatureWrongDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("3-d shape did not panic")
		}
	}()
	Temperature([]int{4, 4, 4}, 1)
}

func TestPrecipitationSparseAndNonNegative(t *testing.T) {
	a := Precipitation([]int{8, 8, 64}, 3)
	zeros, neg := 0, 0
	for _, v := range a.Data() {
		if v == 0 {
			zeros++
		}
		if v < 0 {
			neg++
		}
	}
	if neg != 0 {
		t.Errorf("%d negative precipitation values", neg)
	}
	frac := float64(zeros) / float64(a.Size())
	if frac < 0.2 {
		t.Errorf("only %.0f%% zeros; precipitation should be sparse", frac*100)
	}
	if a.Sum() <= 0 {
		t.Error("no rain at all")
	}
}

func TestPrecipitationDeterministic(t *testing.T) {
	a := Precipitation([]int{8, 8, 32}, 5)
	b := Precipitation([]int{8, 8, 32}, 5)
	if !a.EqualApprox(b, 0) {
		t.Error("same seed should give identical cubes")
	}
}

func TestDenseShapeAgnostic(t *testing.T) {
	for _, shape := range [][]int{{16}, {8, 8}, {4, 4, 4}} {
		a := Dense(shape, 2)
		if a.Size() == 0 {
			t.Fatal("empty array")
		}
		// Smoothness plus noise: values bounded by #dims + noise margin.
		for _, v := range a.Data() {
			if v > float64(len(shape))+3 || v < -float64(len(shape))-3 {
				t.Fatalf("value %g out of expected envelope for %v", v, shape)
			}
		}
	}
}

func TestSparseDensity(t *testing.T) {
	a := Sparse([]int{64, 64}, 0.1, 9)
	nz := 0
	for _, v := range a.Data() {
		if v != 0 {
			nz++
		}
	}
	frac := float64(nz) / float64(a.Size())
	if frac < 0.05 || frac > 0.15 {
		t.Errorf("non-zero fraction %.3f, want ~0.1", frac)
	}
}

func TestSparseDensityZeroAndOne(t *testing.T) {
	if Sparse([]int{16}, 0, 1).Sum() != 0 {
		t.Error("density 0 should be all zeros")
	}
	all := Sparse([]int{16}, 1, 1)
	for _, v := range all.Data() {
		if v == 0 {
			t.Error("density 1 left a zero cell")
			break
		}
	}
}

func TestRandomWalk(t *testing.T) {
	w := RandomWalk(1000, 4)
	if len(w) != 1000 {
		t.Fatalf("length %d", len(w))
	}
	w2 := RandomWalk(1000, 4)
	for i := range w {
		if w[i] != w2[i] {
			t.Fatal("not deterministic")
		}
	}
	// Steps should be unit-normal-ish.
	var sumSq float64
	prev := 0.0
	for _, v := range w {
		d := v - prev
		sumSq += d * d
		prev = v
	}
	if avg := sumSq / 1000; avg < 0.7 || avg > 1.4 {
		t.Errorf("mean squared step %g, want ~1", avg)
	}
}

// TestDenseMatchesPointwise holds Dense, which evaluates each dimension's
// wave once per coordinate, to the per-cell evaluation of its formula,
// bit for bit, over shapes of one to four dimensions, square and not.
func TestDenseMatchesPointwise(t *testing.T) {
	pointwise := func(shape []int, seed int64) *ndarray.Array {
		rng := rand.New(rand.NewSource(seed))
		a := ndarray.New(shape...)
		freqs := make([]float64, len(shape))
		phases := make([]float64, len(shape))
		for i := range freqs {
			freqs[i] = 1 + rng.Float64()*2
			phases[i] = rng.Float64() * 2 * math.Pi
		}
		a.Each(func(c []int, _ float64) {
			v := 0.0
			for i, ci := range c {
				v += math.Sin(2*math.Pi*freqs[i]*float64(ci)/float64(shape[i]) + phases[i])
			}
			v += rng.NormFloat64() * 0.2
			a.Set(v, c...)
		})
		return a
	}
	for _, shape := range [][]int{{1}, {16}, {8, 8}, {32, 4}, {3, 5}, {4, 4, 4}, {2, 3, 1, 5}} {
		for _, seed := range []int64{1, 7} {
			got, want := Dense(shape, seed).Data(), pointwise(shape, seed).Data()
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("shape %v seed %d: cell %d = %v, pointwise %v", shape, seed, i, got[i], want[i])
				}
			}
		}
	}
}
