package ndarray

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndShape(t *testing.T) {
	a := New(2, 3, 4)
	if a.Dims() != 3 || a.Size() != 24 {
		t.Fatalf("Dims=%d Size=%d", a.Dims(), a.Size())
	}
	sh := a.Shape()
	if sh[0] != 2 || sh[1] != 3 || sh[2] != 4 {
		t.Fatalf("Shape=%v", sh)
	}
	sh[0] = 99 // must not alias internals
	if a.Extent(0) != 2 {
		t.Error("Shape() aliases internal state")
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(2,0) did not panic")
		}
	}()
	New(2, 0)
}

func TestFromSlice(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	a := FromSlice(data, 2, 3)
	if a.At(0, 0) != 1 || a.At(0, 2) != 3 || a.At(1, 0) != 4 || a.At(1, 2) != 6 {
		t.Fatal("row-major layout wrong")
	}
	a.Set(42, 1, 1)
	if data[4] != 42 {
		t.Error("FromSlice should not copy")
	}
}

func TestFromSliceLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestOffsetCoordsRoundTrip(t *testing.T) {
	a := New(3, 4, 5)
	for off := 0; off < a.Size(); off++ {
		c := a.Coords(off)
		if got := a.Offset(c); got != off {
			t.Fatalf("Offset(Coords(%d)) = %d", off, got)
		}
	}
}

func TestAtSetAdd(t *testing.T) {
	a := New(4, 4)
	a.Set(1.5, 2, 3)
	a.Add(2.5, 2, 3)
	if a.At(2, 3) != 4 {
		t.Fatalf("At(2,3) = %g", a.At(2, 3))
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	a := New(2, 2)
	for _, coords := range [][]int{{2, 0}, {0, -1}, {0, 0, 0}, {1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%v) did not panic", coords)
				}
			}()
			a.At(coords...)
		}()
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(2, 2)
	a.Set(7, 1, 1)
	b := a.Clone()
	b.Set(9, 1, 1)
	if a.At(1, 1) != 7 || b.At(1, 1) != 9 {
		t.Error("Clone shares storage")
	}
}

func TestFillAndSum(t *testing.T) {
	a := New(3, 3)
	a.Fill(2)
	if a.Sum() != 18 {
		t.Errorf("Sum = %g", a.Sum())
	}
}

func TestSubCopyPaste(t *testing.T) {
	a := New(4, 4)
	for i := 0; i < 16; i++ {
		a.Data()[i] = float64(i)
	}
	sub := a.SubCopy([]int{1, 2}, []int{2, 2})
	// Rows 1..2, cols 2..3: values 6,7,10,11.
	want := []float64{6, 7, 10, 11}
	for i, w := range want {
		if sub.Data()[i] != w {
			t.Fatalf("SubCopy data = %v, want %v", sub.Data(), want)
		}
	}
	b := New(4, 4)
	b.SubPaste(sub, []int{0, 0})
	if b.At(0, 0) != 6 || b.At(1, 1) != 11 || b.At(2, 2) != 0 {
		t.Error("SubPaste wrong")
	}
}

func TestSubAdd(t *testing.T) {
	a := New(2, 2)
	a.Fill(1)
	sub := FromSlice([]float64{10, 20}, 1, 2)
	a.SubAdd(sub, []int{1, 0})
	if a.At(1, 0) != 11 || a.At(1, 1) != 21 || a.At(0, 0) != 1 {
		t.Error("SubAdd wrong")
	}
}

func TestSubCopyBoundsPanics(t *testing.T) {
	a := New(4, 4)
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds SubCopy did not panic")
		}
	}()
	a.SubCopy([]int{3, 3}, []int{2, 2})
}

func TestSubCopyPasteRoundTrip3D(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := New(8, 4, 8)
	for i := range a.Data() {
		a.Data()[i] = rng.Float64()
	}
	start := []int{2, 1, 4}
	shape := []int{4, 2, 2}
	sub := a.SubCopy(start, shape)
	b := a.Clone()
	b.SubPaste(sub, start)
	if !a.EqualApprox(b, 0) {
		t.Error("paste of copied region changed array")
	}
}

func TestEachFiberCoversAll(t *testing.T) {
	a := New(2, 3, 4)
	for dim := 0; dim < 3; dim++ {
		count := 0
		a.EachFiber(dim, func(fixed []int) {
			if fixed[dim] != 0 {
				t.Fatalf("fixed[%d] = %d, want 0", dim, fixed[dim])
			}
			count++
		})
		want := a.Size() / a.Extent(dim)
		if count != want {
			t.Errorf("EachFiber(%d) visited %d fibers, want %d", dim, count, want)
		}
	}
}

func TestEachVisitsRowMajor(t *testing.T) {
	a := New(2, 3)
	var visited [][]int
	a.Each(func(coords []int, v float64) {
		visited = append(visited, append([]int(nil), coords...))
	})
	if len(visited) != 6 {
		t.Fatalf("visited %d cells", len(visited))
	}
	want := [][]int{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}}
	for i := range want {
		if visited[i][0] != want[i][0] || visited[i][1] != want[i][1] {
			t.Fatalf("visit order %v, want %v", visited, want)
		}
	}
}

func TestSumRange(t *testing.T) {
	a := New(4, 4)
	for i := range a.Data() {
		a.Data()[i] = 1
	}
	if got := a.SumRange([]int{1, 1}, []int{2, 3}); got != 6 {
		t.Errorf("SumRange = %g", got)
	}
	if got := a.SumRange([]int{0, 0}, []int{4, 4}); got != 16 {
		t.Errorf("full SumRange = %g", got)
	}
}

func TestEqualApprox(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := FromSlice([]float64{1, 2.0000001}, 2)
	if !a.EqualApprox(b, 1e-6) {
		t.Error("should be approximately equal")
	}
	if a.EqualApprox(b, 1e-9) {
		t.Error("should differ at tight tolerance")
	}
	c := FromSlice([]float64{1, 2}, 1, 2)
	if a.EqualApprox(c, 1) {
		t.Error("different shapes should not be equal")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := FromSlice([]float64{1, 5, 3}, 3)
	b := FromSlice([]float64{1, 2, 4}, 3)
	if got := a.MaxAbsDiff(b); got != 3 {
		t.Errorf("MaxAbsDiff = %g", got)
	}
}

func TestQuickSubCopyMatchesAt(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := New(4, 8, 4)
		for i := range a.Data() {
			a.Data()[i] = rng.Float64()
		}
		start := []int{rng.Intn(3), rng.Intn(7), rng.Intn(3)}
		shape := []int{1 + rng.Intn(4-start[0]), 1 + rng.Intn(8-start[1]), 1 + rng.Intn(4-start[2])}
		sub := a.SubCopy(start, shape)
		ok := true
		sub.Each(func(coords []int, v float64) {
			if a.At(start[0]+coords[0], start[1]+coords[1], start[2]+coords[2]) != v {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickSumRangeMatchesLoop(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := New(8, 8)
		for i := range a.Data() {
			a.Data()[i] = float64(rng.Intn(10))
		}
		s := []int{rng.Intn(8), rng.Intn(8)}
		sh := []int{1 + rng.Intn(8-s[0]), 1 + rng.Intn(8-s[1])}
		want := 0.0
		for i := s[0]; i < s[0]+sh[0]; i++ {
			for j := s[1]; j < s[1]+sh[1]; j++ {
				want += a.At(i, j)
			}
		}
		return a.SumRange(s, sh) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStringRendering(t *testing.T) {
	small := FromSlice([]float64{1, 2}, 2)
	if s := small.String(); s == "" || len(s) > 200 {
		t.Errorf("small String = %q", s)
	}
	big := New(32, 32)
	s := big.String()
	if len(s) > 100 {
		t.Errorf("big arrays should summarize, got %d chars", len(s))
	}
}

func TestCoordsOutOfRangePanics(t *testing.T) {
	a := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Error("Coords(-1) did not panic")
		}
	}()
	a.Coords(-1)
}
