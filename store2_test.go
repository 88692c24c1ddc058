package shiftsplit

import (
	"math"
	"math/rand"
	"testing"
)

func TestClearBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	src := randArray(rng, 16, 16)
	for _, form := range []Form{Standard, NonStandard} {
		st, err := CreateStore(StoreOptions{Shape: []int{16, 16}, Form: form})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.TransformChunked(src, 2); err != nil {
			t.Fatal(err)
		}
		b := CubeBlock(2, 1, 2) // [4,8) x [8,12)
		if err := st.ClearBlock(b); err != nil {
			t.Fatal(err)
		}
		hat, err := st.ReadTransform()
		if err != nil {
			t.Fatal(err)
		}
		got := Inverse(hat, form)
		want := src.Clone()
		zero := NewArray(4, 4)
		want.SubPaste(zero, b.Start())
		if !got.EqualApprox(want, 1e-7) {
			t.Errorf("%v: ClearBlock result differs by %g", form, got.MaxAbsDiff(want))
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestClearBlockIdempotentOnZeroRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	src := randArray(rng, 8, 8)
	st, err := CreateStore(StoreOptions{Shape: []int{8, 8}, Form: Standard})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.TransformChunked(src, 1); err != nil {
		t.Fatal(err)
	}
	b := CubeBlock(1, 0, 0)
	if err := st.ClearBlock(b); err != nil {
		t.Fatal(err)
	}
	if err := st.ClearBlock(b); err != nil {
		t.Fatal(err)
	}
	vals, _, err := st.ExtractBlock(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals.Data() {
		if math.Abs(v) > 1e-9 {
			t.Fatalf("cleared region holds %g", v)
		}
	}
}

func TestExtractBoxNonStandardFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	src := randArray(rng, 16, 16)
	st, err := CreateStore(StoreOptions{Shape: []int{16, 16}, Form: NonStandard})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.TransformChunked(src, 2); err != nil {
		t.Fatal(err)
	}
	got, io, err := st.ExtractBox([]int{3, 5}, []int{7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if io <= 0 {
		t.Error("no I/O reported")
	}
	want := src.SubCopy([]int{3, 5}, []int{7, 9})
	if !got.EqualApprox(want, 1e-7) {
		t.Errorf("non-standard box differs by %g", got.MaxAbsDiff(want))
	}
}

func TestPointsBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	src := randArray(rng, 32, 32)
	for _, form := range []Form{Standard, NonStandard} {
		for _, materialize := range []bool{false, true} {
			st, err := CreateStore(StoreOptions{Shape: []int{32, 32}, Form: form})
			if err != nil {
				t.Fatal(err)
			}
			if materialize {
				err = st.Materialize(src)
			} else {
				err = st.TransformChunked(src, 2)
			}
			if err != nil {
				t.Fatal(err)
			}
			var points [][]int
			for i := 0; i < 40; i++ {
				points = append(points, []int{rng.Intn(32), rng.Intn(32)})
			}
			vals, io, err := st.Points(points)
			if err != nil {
				t.Fatal(err)
			}
			if io <= 0 || io > st.NumBlocks() {
				t.Fatalf("%v mat=%v: batch read %d blocks", form, materialize, io)
			}
			for i, p := range points {
				if math.Abs(vals[i]-src.At(p...)) > 1e-7 {
					t.Fatalf("%v mat=%v point %v: %g vs %g", form, materialize, p, vals[i], src.At(p...))
				}
			}
			// Materialized standard stores answer from leaf tiles alone, so
			// the batch can never need more blocks than queries; root-path
			// batches share upper tiles but touch several blocks per query.
			if materialize && form == Standard && io > len(points) {
				t.Fatalf("%v mat=%v: %d blocks for %d queries", form, materialize, io, len(points))
			}
			st.Close()
		}
	}
}
