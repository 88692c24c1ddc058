package haar

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-9

// randVec returns a random vector of size 2^n.
func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, 1<<uint(n))
	for i := range v {
		v[i] = rng.NormFloat64() * 10
	}
	return v
}

func TestPaperExample(t *testing.T) {
	// Paper §2.1: {3, 5, 7, 5} -> {5, -1, -1, 1}.
	got := Transform([]float64{3, 5, 7, 5})
	want := []float64{5, -1, -1, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("Transform({3,5,7,5}) = %v, want %v", got, want)
		}
	}
}

func TestTransformSize1(t *testing.T) {
	got := Transform([]float64{42})
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("Transform of singleton = %v", got)
	}
	back := Inverse(got)
	if len(back) != 1 || back[0] != 42 {
		t.Fatalf("Inverse of singleton = %v", back)
	}
}

func TestTransformDoesNotMutateInput(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	Transform(a)
	if a[0] != 1 || a[3] != 4 {
		t.Error("Transform mutated its input")
	}
	hat := []float64{5, -1, -1, 1}
	Inverse(hat)
	if hat[0] != 5 || hat[3] != 1 {
		t.Error("Inverse mutated its input")
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 10; n++ {
		a := randVec(rng, n)
		back := Inverse(Transform(a))
		for i := range a {
			if math.Abs(a[i]-back[i]) > tol {
				t.Fatalf("n=%d round trip differs at %d: %g vs %g", n, i, a[i], back[i])
			}
		}
	}
}

func TestTransformPanicsOnNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Transform of length 3 did not panic")
		}
	}()
	Transform([]float64{1, 2, 3})
}

func TestAverageIsFirstCoefficient(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randVec(rng, 6)
	hat := Transform(a)
	sum := 0.0
	for _, v := range a {
		sum += v
	}
	if math.Abs(hat[0]-sum/float64(len(a))) > tol {
		t.Errorf("hat[0] = %g, want mean %g", hat[0], sum/float64(len(a)))
	}
}

func TestIndexLayout(t *testing.T) {
	// n=3: u at 0, w[3,0] at 1, w[2,0..1] at 2..3, w[1,0..3] at 4..7.
	n := 3
	wantIdx := map[[2]int]int{
		{3, 0}: 1, {2, 0}: 2, {2, 1}: 3,
		{1, 0}: 4, {1, 1}: 5, {1, 2}: 6, {1, 3}: 7,
	}
	for jk, want := range wantIdx {
		if got := Index(n, jk[0], jk[1]); got != want {
			t.Errorf("Index(3,%d,%d) = %d, want %d", jk[0], jk[1], got, want)
		}
	}
}

func TestLevelPosRoundTrip(t *testing.T) {
	for n := 1; n <= 8; n++ {
		for j := 1; j <= n; j++ {
			for k := 0; k < 1<<uint(n-j); k++ {
				idx := Index(n, j, k)
				gj, gk := LevelPos(n, idx)
				if gj != j || gk != k {
					t.Fatalf("LevelPos(%d, %d) = (%d,%d), want (%d,%d)", n, idx, gj, gk, j, k)
				}
			}
		}
	}
}

func TestIndexPanics(t *testing.T) {
	for _, c := range [][3]int{{3, 0, 0}, {3, 4, 0}, {3, 2, 2}, {3, 1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Index(%v) did not panic", c)
				}
			}()
			Index(c[0], c[1], c[2])
		}()
	}
}

func TestSupport(t *testing.T) {
	n := 3
	// w[2,1] covers [4,7] (paper Figure 2).
	s := Support(n, Index(n, 2, 1))
	if s.Start() != 4 || s.End() != 7 {
		t.Errorf("Support(w[2,1]) = %v", s)
	}
	root := Support(n, 0)
	if root.Start() != 0 || root.End() != 7 {
		t.Errorf("Support(u) = %v", root)
	}
}

func TestPointPathLemma1(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n <= 8; n++ {
		a := randVec(rng, n)
		hat := Transform(a)
		for i := range a {
			path := PointPath(n, i)
			if len(path) != n+1 {
				t.Fatalf("n=%d path length %d, want %d (Lemma 1)", n, len(path), n+1)
			}
			got := 0.0
			for _, c := range path {
				got += c.Weight * hat[c.Index]
			}
			if math.Abs(got-a[i]) > tol {
				t.Fatalf("n=%d point %d from its path = %g, want %g", n, i, got, a[i])
			}
		}
	}
}

func TestPointPathWeightsAreSigns(t *testing.T) {
	for _, c := range PointPath(6, 37) {
		if c.Weight != 1 && c.Weight != -1 {
			t.Fatalf("path weight %g not +-1", c.Weight)
		}
	}
}

func TestPrefixSumCoefs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for n := 1; n <= 8; n++ {
		a := randVec(rng, n)
		hat := Transform(a)
		prefix := 0.0
		for t2 := 0; t2 <= len(a); t2++ {
			coefs := PrefixSumCoefs(n, t2)
			if len(coefs) > n+1 {
				t.Fatalf("n=%d t=%d used %d coefficients, want <= %d", n, t2, len(coefs), n+1)
			}
			got := 0.0
			for _, c := range coefs {
				got += c.Weight * hat[c.Index]
			}
			if math.Abs(got-prefix) > tol {
				t.Fatalf("n=%d prefix(%d) = %g, want %g", n, t2, got, prefix)
			}
			if t2 < len(a) {
				prefix += a[t2]
			}
		}
	}
}

func TestRangeSumLemma2(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 1; n <= 7; n++ {
		a := randVec(rng, n)
		hat := Transform(a)
		for trial := 0; trial < 50; trial++ {
			l := rng.Intn(len(a))
			r := l + rng.Intn(len(a)-l)
			want := 0.0
			for i := l; i <= r; i++ {
				want += a[i]
			}
			if got := RangeSum(hat, l, r); math.Abs(got-want) > 1e-7 {
				t.Fatalf("n=%d RangeSum(%d,%d) = %g, want %g", n, l, r, got, want)
			}
			if used := len(RangeSumCoefs(n, l, r)); used > 2*n+1 {
				t.Fatalf("n=%d RangeSum(%d,%d) used %d coefficients, Lemma 2 bound is %d", n, l, r, used, 2*n+1)
			}
		}
	}
}

func TestRangeSumFullDomain(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	hat := Transform(a)
	if got := RangeSum(hat, 0, 7); math.Abs(got-36) > tol {
		t.Errorf("full-range sum = %g", got)
	}
	// Full range needs only the average.
	coefs := RangeSumCoefs(3, 0, 7)
	if len(coefs) != 1 || coefs[0].Index != 0 {
		t.Errorf("full-range coefficients = %v", coefs)
	}
}

func TestRangeSumSinglePoint(t *testing.T) {
	a := []float64{4, 8, 15, 16, 23, 42, 108, 3}
	hat := Transform(a)
	for i, want := range a {
		if got := RangeSum(hat, i, i); math.Abs(got-want) > tol {
			t.Errorf("RangeSum(%d,%d) = %g, want %g", i, i, got, want)
		}
	}
}

func TestScalingAt(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for n := 1; n <= 7; n++ {
		a := randVec(rng, n)
		hat := Transform(a)
		for j := 0; j <= n; j++ {
			size := 1 << uint(j)
			for k := 0; k < 1<<uint(n-j); k++ {
				want := 0.0
				for i := k * size; i < (k+1)*size; i++ {
					want += a[i]
				}
				want /= float64(size)
				if got := ScalingAt(hat, j, k); math.Abs(got-want) > 1e-8 {
					t.Fatalf("n=%d ScalingAt(%d,%d) = %g, want %g", n, j, k, got, want)
				}
			}
		}
	}
}

func TestEnergyRelation(t *testing.T) {
	// For the unnormalized transform, sum of squares weighted by support size
	// equals the input energy: sum a_i^2 = sum_c |support(c)| * c^2.
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 8; n++ {
		a := randVec(rng, n)
		hat := Transform(a)
		var inEnergy, coefEnergy float64
		for _, v := range a {
			inEnergy += v * v
		}
		for idx, v := range hat {
			coefEnergy += float64(Support(n, idx).Len()) * v * v
		}
		if math.Abs(inEnergy-coefEnergy) > 1e-6*(1+inEnergy) {
			t.Fatalf("n=%d energy mismatch: %g vs %g", n, inEnergy, coefEnergy)
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw % 9)
		rng := rand.New(rand.NewSource(seed))
		a := randVec(rng, n)
		back := Inverse(Transform(a))
		for i := range a {
			if math.Abs(a[i]-back[i]) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickLinearity(t *testing.T) {
	// DWT(alpha*a + b) = alpha*DWT(a) + DWT(b).
	f := func(seed int64, alphaRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		alpha := float64(alphaRaw%10) - 5
		a, b := randVec(rng, 6), randVec(rng, 6)
		combo := make([]float64, len(a))
		for i := range a {
			combo[i] = alpha*a[i] + b[i]
		}
		ha, hb, hc := Transform(a), Transform(b), Transform(combo)
		for i := range hc {
			if math.Abs(hc[i]-(alpha*ha[i]+hb[i])) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// prefixDiffRangeSumCoefs is RangeSumCoefs as it was first written: the
// difference of two prefix-sum coefficient sets merged through a map (whose
// iteration order made the result order change from call to call).
func prefixDiffRangeSumCoefs(n, l, r int) map[int]float64 {
	weights := map[int]float64{}
	for _, c := range PrefixSumCoefs(n, r+1) {
		weights[c.Index] += c.Weight
	}
	for _, c := range PrefixSumCoefs(n, l) {
		weights[c.Index] -= c.Weight
	}
	for idx, w := range weights {
		if w == 0 {
			delete(weights, idx)
		}
	}
	return weights
}

func TestRangeSumCoefsClosedForm(t *testing.T) {
	for n := 0; n <= 8; n++ {
		for l := 0; l < 1<<uint(n); l++ {
			for r := l; r < 1<<uint(n); r++ {
				got := RangeSumCoefs(n, l, r)
				again := RangeSumCoefs(n, l, r)
				want := prefixDiffRangeSumCoefs(n, l, r)
				if len(got) != len(want) || len(got) != len(again) {
					t.Fatalf("n=%d [%d,%d]: %d coefficients, again %d, prefix difference %d", n, l, r, len(got), len(again), len(want))
				}
				level := n + 1 // index 0 sorts above every detail level
				for i, c := range got {
					if c != again[i] {
						t.Fatalf("n=%d [%d,%d]: entry %d differs between two calls: %v vs %v", n, l, r, i, c, again[i])
					}
					if w, ok := want[c.Index]; !ok || w != c.Weight {
						t.Fatalf("n=%d [%d,%d]: index %d weight %g, prefix difference %g (present %v)", n, l, r, c.Index, c.Weight, w, ok)
					}
					lv := n + 1
					if c.Index > 0 {
						lv, _ = LevelPos(n, c.Index)
					}
					if lv > level || (i > 0 && c.Index > 0 && lv == level && c.Index <= got[i-1].Index) {
						t.Fatalf("n=%d [%d,%d]: order %v is not by descending level, then position", n, l, r, got)
					}
					level = lv
				}
			}
		}
	}
}

func TestOverlapMatchesCounting(t *testing.T) {
	const n = 5
	for s := 0; s < 1<<n; s++ {
		for e := s + 1; e <= 1<<n; e++ {
			for j := 1; j <= n; j++ {
				for k := 0; k < 1<<uint(n-j); k++ {
					wantT, wantD := 0, 0
					for x := s; x < e; x++ {
						if x>>uint(j) != k {
							continue
						}
						wantT++
						if x>>uint(j-1)&1 == 0 {
							wantD++
						} else {
							wantD--
						}
					}
					if gotT, gotD := Overlap(s, e, j, k); gotT != wantT || gotD != wantD {
						t.Fatalf("Overlap([%d,%d), j=%d, k=%d) = (%d, %d), want (%d, %d)", s, e, j, k, gotT, gotD, wantT, wantD)
					}
				}
			}
		}
	}
}
