package shiftsplit

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestNonStdAppenderFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	a, err := NewNonStdAppender(3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	full := NewArray(8, 24)
	for h := 0; h < 3; h++ {
		cube := randArray(rng, 8, 8)
		full.SubPaste(cube, []int{0, h * 8})
		if err := a.Append(cube); err != nil {
			t.Fatal(err)
		}
	}
	if a.Hypercubes() != 3 {
		t.Errorf("Hypercubes = %d", a.Hypercubes())
	}
	v, err := a.PointAt([]int{3, 17})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-full.At(3, 17)) > 1e-8 {
		t.Errorf("point = %g, want %g", v, full.At(3, 17))
	}
	sum, err := a.RangeSum([]int{2, 5}, []int{4, 15})
	if err != nil {
		t.Fatal(err)
	}
	if want := full.SumRange([]int{2, 5}, []int{4, 15}); math.Abs(sum-want) > 1e-6 {
		t.Errorf("range sum = %g, want %g", sum, want)
	}
	got, err := a.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualApprox(full, 1e-8) {
		t.Error("reconstruction differs")
	}
	if a.TotalIO().Total() == 0 {
		t.Error("no I/O recorded")
	}
}

// TestMaintenanceRejectsForeignShapes holds Materialize and
// TransformChunked to an error, before any write, for an array whose shape
// is not the store's: smaller, larger, non-square and not a power of two.
func TestMaintenanceRejectsForeignShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	ops := []struct {
		name string
		run  func(*Store, *Array) error
	}{
		{"Materialize", (*Store).Materialize},
		{"TransformChunked", func(st *Store, a *Array) error { return st.TransformChunked(a, 2) }},
	}
	for _, form := range []Form{Standard, NonStandard} {
		for _, op := range ops {
			name := op.name
			for _, shape := range [][]int{{8, 8}, {32, 32}, {16, 8}, {12, 12}} {
				st, err := CreateStore(StoreOptions{Shape: []int{16, 16}, Form: form, TileBits: 2})
				if err != nil {
					t.Fatal(err)
				}
				if err := st.Materialize(randArray(rng, 16, 16)); err != nil {
					t.Fatal(err)
				}
				before, err := st.ReadTransform()
				if err != nil {
					t.Fatal(err)
				}
				st.ResetStats()
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("%v %s of %v panicked: %v", form, name, shape, r)
						}
					}()
					if err := op.run(st, randArray(rng, shape...)); err == nil {
						t.Errorf("%v %s of %v into a 16x16 store returned nil", form, name, shape)
					}
				}()
				if w := st.Stats().Writes; w != 0 {
					t.Errorf("%v %s of %v wrote %d blocks", form, name, shape, w)
				}
				after, err := st.ReadTransform()
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(after.Data(), before.Data()) {
					t.Errorf("%v %s of %v changed the stored transform", form, name, shape)
				}
				st.Close()
			}
		}
	}
}
