package shiftsplit

import (
	"math/rand"
	"testing"
)

func TestScaleStore(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	a := randArray(rng, 8, 8)
	st, _ := CreateStore(StoreOptions{Shape: []int{8, 8}, Form: Standard})
	defer st.Close()
	if err := st.TransformChunked(a, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Scale(2.5); err != nil {
		t.Fatal(err)
	}
	hat, err := st.ReadTransform()
	if err != nil {
		t.Fatal(err)
	}
	scaled := a.Clone()
	for i := range scaled.Data() {
		scaled.Data()[i] *= 2.5
	}
	if !Inverse(hat, Standard).EqualApprox(scaled, 1e-7) {
		t.Error("Scale wrong")
	}
}

func TestRollupFromStore(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	a := randArray(rng, 16, 8)
	st, _ := CreateStore(StoreOptions{Shape: []int{16, 8}, Form: Standard})
	defer st.Close()
	if err := st.TransformChunked(a, 2); err != nil {
		t.Fatal(err)
	}
	for dim := 0; dim < 2; dim++ {
		reducedHat, io, err := st.RollupFromStore(dim)
		if err != nil {
			t.Fatal(err)
		}
		if io <= 0 || io > st.NumBlocks() {
			t.Fatalf("dim %d: read %d blocks", dim, io)
		}
		// The hyperplane is a strict subset of the store.
		if io == st.NumBlocks() {
			t.Errorf("dim %d: roll-up read every block", dim)
		}
		got := Inverse(reducedHat, Standard)
		other := 1 - dim
		want := NewArray(a.Extent(other))
		a.Each(func(coords []int, v float64) {
			want.Add(v, coords[other])
		})
		if !got.EqualApprox(want, 1e-7) {
			t.Errorf("dim %d: roll-up differs by %g", dim, got.MaxAbsDiff(want))
		}
	}
	if _, _, err := st.RollupFromStore(5); err == nil {
		t.Error("bad dimension accepted")
	}
}
