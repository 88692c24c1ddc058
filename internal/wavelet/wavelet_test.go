package wavelet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/shiftsplit/shiftsplit/internal/haar"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
)

const tol = 1e-9

func randArray(rng *rand.Rand, shape ...int) *ndarray.Array {
	a := ndarray.New(shape...)
	for i := range a.Data() {
		a.Data()[i] = rng.NormFloat64() * 10
	}
	return a
}

func TestStandardMatchesHaarIn1D(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := make([]float64, 16)
	for i := range v {
		v[i] = rng.Float64()
	}
	a := ndarray.FromSlice(append([]float64(nil), v...), 16)
	hat := TransformStandard(a)
	want := haar.Transform(v)
	for i := range want {
		if math.Abs(hat.Data()[i]-want[i]) > tol {
			t.Fatalf("1-d standard transform differs at %d", i)
		}
	}
}

func TestNonStandardMatchesHaarIn1D(t *testing.T) {
	// In one dimension the two forms coincide.
	rng := rand.New(rand.NewSource(2))
	a := randArray(rng, 32)
	std := TransformStandard(a)
	nonstd := TransformNonStandard(a)
	if !std.EqualApprox(nonstd, tol) {
		t.Error("1-d standard and non-standard transforms should coincide")
	}
}

func TestStandardRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shapes := [][]int{{4}, {8, 8}, {4, 16}, {8, 4, 2}, {4, 4, 4, 4}}
	for _, shape := range shapes {
		a := randArray(rng, shape...)
		back := InverseStandard(TransformStandard(a))
		if !a.EqualApprox(back, tol) {
			t.Errorf("standard round trip failed for shape %v (max diff %g)", shape, a.MaxAbsDiff(back))
		}
	}
}

func TestNonStandardRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	shapes := [][]int{{8}, {8, 8}, {4, 4, 4}, {4, 4, 4, 4}, {16, 16}}
	for _, shape := range shapes {
		a := randArray(rng, shape...)
		back := InverseNonStandard(TransformNonStandard(a))
		if !a.EqualApprox(back, tol) {
			t.Errorf("non-standard round trip failed for shape %v (max diff %g)", shape, a.MaxAbsDiff(back))
		}
	}
}

func TestFormDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randArray(rng, 8, 8)
	if !Transform(a, Standard).EqualApprox(TransformStandard(a), 0) {
		t.Error("Transform(Standard) dispatch wrong")
	}
	if !Transform(a, NonStandard).EqualApprox(TransformNonStandard(a), 0) {
		t.Error("Transform(NonStandard) dispatch wrong")
	}
	if !Inverse(Transform(a, Standard), Standard).EqualApprox(a, tol) {
		t.Error("Inverse(Standard) dispatch wrong")
	}
	if !Inverse(Transform(a, NonStandard), NonStandard).EqualApprox(a, tol) {
		t.Error("Inverse(NonStandard) dispatch wrong")
	}
}

func TestFormString(t *testing.T) {
	if Standard.String() != "standard" || NonStandard.String() != "non-standard" {
		t.Error("Form.String wrong")
	}
	if Form(9).String() == "" {
		t.Error("unknown form should still render")
	}
}

func TestNonStandardRequiresCubic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-cubic non-standard transform did not panic")
		}
	}()
	TransformNonStandard(ndarray.New(4, 8))
}

func TestNonPow2Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two extent did not panic")
		}
	}()
	TransformStandard(ndarray.New(6, 4))
}

func TestAverageAtOrigin(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, form := range []Form{Standard, NonStandard} {
		a := randArray(rng, 8, 8)
		hat := Transform(a, form)
		mean := a.Sum() / float64(a.Size())
		if math.Abs(hat.At(0, 0)-mean) > tol {
			t.Errorf("%v: origin = %g, want mean %g", form, hat.At(0, 0), mean)
		}
	}
}

func TestTransformsDoNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randArray(rng, 8, 8)
	orig := a.Clone()
	TransformStandard(a)
	TransformNonStandard(a)
	if !a.EqualApprox(orig, 0) {
		t.Error("transform mutated input")
	}
}

func TestStandard2DManual(t *testing.T) {
	// 2x2 array [[a,b],[c,d]]: standard transform gives
	// [[ (a+b+c+d)/4, (a-b+c-d)/4 ], [ (a+b-c-d)/4, (a-b-c+d)/4 ]].
	a := ndarray.FromSlice([]float64{1, 3, 5, 7}, 2, 2)
	hat := TransformStandard(a)
	want := [][]float64{{4, -1}, {-2, 0}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if math.Abs(hat.At(i, j)-want[i][j]) > tol {
				t.Fatalf("hat[%d][%d] = %g, want %g", i, j, hat.At(i, j), want[i][j])
			}
		}
	}
}

func TestNonStandard2DManualOneLevel(t *testing.T) {
	// For a 2x2 array a single level is the whole transform, and the two
	// forms coincide.
	a := ndarray.FromSlice([]float64{1, 3, 5, 7}, 2, 2)
	if !TransformNonStandard(a).EqualApprox(TransformStandard(a), tol) {
		t.Error("2x2 forms should coincide")
	}
}

func TestFormsDifferBeyondOneLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randArray(rng, 4, 4)
	if TransformStandard(a).EqualApprox(TransformNonStandard(a), 1e-12) {
		t.Error("standard and non-standard should differ for 4x4 generic input")
	}
}

func TestPointPathStandardCount(t *testing.T) {
	shape := []int{8, 16}
	path := PointPathStandard(shape, []int{5, 11})
	want := (3 + 1) * (4 + 1)
	if len(path) != want {
		t.Errorf("path length %d, want %d", len(path), want)
	}
}

func TestReconstructPointStandard(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randArray(rng, 8, 4, 8)
	hat := TransformStandard(a)
	for trial := 0; trial < 100; trial++ {
		p := []int{rng.Intn(8), rng.Intn(4), rng.Intn(8)}
		if got, want := ReconstructPointStandard(hat, p), a.At(p...); math.Abs(got-want) > 1e-8 {
			t.Fatalf("point %v: got %g want %g", p, got, want)
		}
	}
}

func TestReconstructPointNonStandard(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, shape := range [][]int{{16}, {8, 8}, {4, 4, 4}} {
		a := randArray(rng, shape...)
		hat := TransformNonStandard(a)
		for trial := 0; trial < 50; trial++ {
			p := make([]int, len(shape))
			for i := range p {
				p[i] = rng.Intn(shape[i])
			}
			if got, want := ReconstructPointNonStandard(hat, p), a.At(p...); math.Abs(got-want) > 1e-8 {
				t.Fatalf("shape %v point %v: got %g want %g", shape, p, got, want)
			}
		}
	}
}

func TestRangeSumStandard(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randArray(rng, 16, 8)
	hat := TransformStandard(a)
	for trial := 0; trial < 100; trial++ {
		s := []int{rng.Intn(16), rng.Intn(8)}
		sh := []int{1 + rng.Intn(16-s[0]), 1 + rng.Intn(8-s[1])}
		want := a.SumRange(s, sh)
		if got := RangeSumStandard(hat, s, sh); math.Abs(got-want) > 1e-7 {
			t.Fatalf("box %v+%v: got %g want %g", s, sh, got, want)
		}
	}
}

func TestRangeSumCoefsStandardBound(t *testing.T) {
	// At most prod (2 n_i + 1) coefficients.
	shape := []int{16, 16}
	coefs := RangeSumCoefsStandard(shape, []int{3, 5}, []int{7, 9})
	bound := (2*4 + 1) * (2*4 + 1)
	if len(coefs) > bound {
		t.Errorf("used %d coefficients, bound %d", len(coefs), bound)
	}
}

func TestRangeSumNonStandard(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, shape := range [][]int{{16}, {8, 8}, {4, 4, 4}} {
		a := randArray(rng, shape...)
		hat := TransformNonStandard(a)
		for trial := 0; trial < 60; trial++ {
			s := make([]int, len(shape))
			sh := make([]int, len(shape))
			for i := range shape {
				s[i] = rng.Intn(shape[i])
				sh[i] = 1 + rng.Intn(shape[i]-s[i])
			}
			want := a.SumRange(s, sh)
			if got := RangeSumNonStandard(hat, s, sh); math.Abs(got-want) > 1e-7 {
				t.Fatalf("shape %v box %v+%v: got %g want %g", shape, s, sh, got, want)
			}
		}
	}
}

func TestRangeSumNonStandardFullDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randArray(rng, 8, 8)
	hat := TransformNonStandard(a)
	if got := RangeSumNonStandard(hat, []int{0, 0}, []int{8, 8}); math.Abs(got-a.Sum()) > 1e-7 {
		t.Errorf("full-domain sum %g, want %g", got, a.Sum())
	}
}

func TestNonStdCoordsRoundTrip(t *testing.T) {
	n, d := 4, 3
	for j := 1; j <= n; j++ {
		base := 1 << uint(n-j)
		for mask := 1; mask < 1<<uint(d); mask++ {
			subband := make([]bool, d)
			for i := range subband {
				subband[i] = mask>>uint(i)&1 == 1
			}
			pos := []int{0 % base, (base - 1) % base, (base / 2) % base}
			coords := NonStdCoords(n, j, subband, pos)
			gj, gs, gp := NonStdLevel(n, coords)
			if gj != j {
				t.Fatalf("level %d decoded as %d (coords %v)", j, gj, coords)
			}
			for i := 0; i < d; i++ {
				if gs[i] != subband[i] || gp[i] != pos[i] {
					t.Fatalf("decode mismatch at level %d mask %d: %v %v vs %v %v", j, mask, gs, gp, subband, pos)
				}
			}
		}
	}
}

func TestNonStdLevelOrigin(t *testing.T) {
	j, sb, pos := NonStdLevel(4, []int{0, 0})
	if j != 5 || sb != nil || pos[0] != 0 || pos[1] != 0 {
		t.Errorf("origin decoded as j=%d sb=%v pos=%v", j, sb, pos)
	}
}

// TestNonStdNodesPartitionTheArray checks the quadtree of Figure 7: every
// node (level j, pos) holds 2^d - 1 details, and the nodes of all levels
// together hold every array cell except the average exactly once.
func TestNonStdNodesPartitionTheArray(t *testing.T) {
	// n=3, node at level 2 pos (1,0): base 2, subbands 01, 10, 11.
	subbands := [][]bool{{true, false}, {false, true}, {true, true}}
	want := [][]int{{3, 0}, {1, 2}, {3, 2}}
	for i, sb := range subbands {
		if got := NonStdCoords(3, 2, sb, []int{1, 0}); got[0] != want[i][0] || got[1] != want[i][1] {
			t.Fatalf("NonStdCoords(3, 2, %v, [1 0]) = %v, want %v", sb, got, want[i])
		}
	}
	for _, d := range []int{1, 2, 3} {
		n := 3
		edge := 1 << uint(n)
		seen := make([]bool, 1<<uint(n*d))
		for j := 1; j <= n; j++ {
			nodes := 1 << uint((n-j)*d)
			for node := 0; node < nodes; node++ {
				pos := make([]int, d)
				for i, rest := d-1, node; i >= 0; i-- {
					pos[i] = rest % (1 << uint(n-j))
					rest /= 1 << uint(n-j)
				}
				for mask := 1; mask < 1<<uint(d); mask++ {
					subband := make([]bool, d)
					for i := range subband {
						subband[i] = mask>>uint(i)&1 == 1
					}
					flat := 0
					for _, c := range NonStdCoords(n, j, subband, pos) {
						flat = flat*edge + c
					}
					if seen[flat] {
						t.Fatalf("d=%d: cell %d held by two nodes", d, flat)
					}
					seen[flat] = true
				}
			}
		}
		for flat, ok := range seen {
			if ok == (flat == 0) {
				t.Fatalf("d=%d: cell %d held=%v", d, flat, ok)
			}
		}
	}
}

func TestNonStdCoordsZeroSubbandPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero subband did not panic")
		}
	}()
	NonStdCoords(4, 2, []bool{false, false}, []int{0, 0})
}

func TestQuickStandardRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := 1 + rng.Intn(3)
		shape := make([]int, dims)
		for i := range shape {
			shape[i] = 1 << uint(1+rng.Intn(4))
		}
		a := randArray(rng, shape...)
		return InverseStandard(TransformStandard(a)).EqualApprox(a, tol)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickNonStandardRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := 1 + rng.Intn(3)
		edge := 1 << uint(1+rng.Intn(3))
		shape := make([]int, dims)
		for i := range shape {
			shape[i] = edge
		}
		a := randArray(rng, shape...)
		return InverseNonStandard(TransformNonStandard(a)).EqualApprox(a, tol)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickLinearityStandard(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randArray(rng, 8, 8), randArray(rng, 8, 8)
		sum := a.Clone()
		for i := range sum.Data() {
			sum.Data()[i] += b.Data()[i]
		}
		ha, hb, hs := TransformStandard(a), TransformStandard(b), TransformStandard(sum)
		for i := range hs.Data() {
			if math.Abs(hs.Data()[i]-ha.Data()[i]-hb.Data()[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestQuickLinearityNonStandard(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randArray(rng, 8, 8), randArray(rng, 8, 8)
		sum := a.Clone()
		for i := range sum.Data() {
			sum.Data()[i] += b.Data()[i]
		}
		ha, hb, hs := TransformNonStandard(a), TransformNonStandard(b), TransformNonStandard(sum)
		for i := range hs.Data() {
			if math.Abs(hs.Data()[i]-ha.Data()[i]-hb.Data()[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
