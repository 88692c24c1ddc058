package shiftsplit

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestAddSubtractStore(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	a := randArray(rng, 16, 16)
	b := randArray(rng, 16, 16)
	for _, form := range []Form{Standard, NonStandard} {
		sa, err := CreateStore(StoreOptions{Shape: []int{16, 16}, Form: form})
		if err != nil {
			t.Fatal(err)
		}
		sb, err := CreateStore(StoreOptions{Shape: []int{16, 16}, Form: form})
		if err != nil {
			t.Fatal(err)
		}
		if err := sa.TransformChunked(a, 2); err != nil {
			t.Fatal(err)
		}
		if err := sb.TransformChunked(b, 2); err != nil {
			t.Fatal(err)
		}
		if err := sa.AddStore(sb); err != nil {
			t.Fatal(err)
		}
		sum := a.Clone()
		sum.SubAdd(b, []int{0, 0})
		hat, err := sa.ReadTransform()
		if err != nil {
			t.Fatal(err)
		}
		if !Inverse(hat, form).EqualApprox(sum, 1e-7) {
			t.Errorf("%v: AddStore wrong", form)
		}
		if err := sa.SubtractStore(sb); err != nil {
			t.Fatal(err)
		}
		hat, err = sa.ReadTransform()
		if err != nil {
			t.Fatal(err)
		}
		if !Inverse(hat, form).EqualApprox(a, 1e-7) {
			t.Errorf("%v: SubtractStore did not undo AddStore", form)
		}
		sa.Close()
		sb.Close()
	}
}

func TestAddStoreKeepsMaterialization(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	a := randArray(rng, 16, 16)
	b := randArray(rng, 16, 16)
	sa, _ := CreateStore(StoreOptions{Shape: []int{16, 16}, Form: Standard})
	sb, _ := CreateStore(StoreOptions{Shape: []int{16, 16}, Form: Standard})
	defer sa.Close()
	defer sb.Close()
	if err := sa.Materialize(a); err != nil {
		t.Fatal(err)
	}
	if err := sb.Materialize(b); err != nil {
		t.Fatal(err)
	}
	if err := sa.AddStore(sb); err != nil {
		t.Fatal(err)
	}
	// Single-block point queries must still be exact: the redundant scaling
	// slots combined linearly.
	for trial := 0; trial < 30; trial++ {
		p := []int{rng.Intn(16), rng.Intn(16)}
		v, io, err := sa.Point(p...)
		if err != nil {
			t.Fatal(err)
		}
		if io != 1 {
			t.Fatalf("point query cost %d blocks after AddStore", io)
		}
		want := a.At(p...) + b.At(p...)
		if math.Abs(v-want) > 1e-8 {
			t.Fatalf("point %v = %g, want %g", p, v, want)
		}
	}
}

func TestAddStoreRejectsMismatch(t *testing.T) {
	sa, _ := CreateStore(StoreOptions{Shape: []int{8, 8}, Form: Standard})
	sb, _ := CreateStore(StoreOptions{Shape: []int{16, 16}, Form: Standard})
	sc, _ := CreateStore(StoreOptions{Shape: []int{8, 8}, Form: NonStandard})
	sd, _ := CreateStore(StoreOptions{Shape: []int{8, 8}, Form: Standard, TileBits: 3})
	defer sa.Close()
	defer sb.Close()
	defer sc.Close()
	defer sd.Close()
	if err := sa.AddStore(sb); err == nil {
		t.Error("shape mismatch accepted")
	}
	if err := sa.AddStore(sc); err == nil {
		t.Error("form mismatch accepted")
	}
	if err := sa.AddStore(sd); err == nil {
		t.Error("tiling mismatch accepted")
	}
}

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

// staleSlots rewrites a closed file-backed store's sidecar to say its
// scaling slots are stale, as a store last maintained without them says.
func staleSlots(t *testing.T, path string) {
	t.Helper()
	m, err := readMeta(path)
	if err != nil {
		t.Fatal(err)
	}
	m.Materialized = false
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(metaPath(path), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCombineRefusesStaleSlots adds and subtracts a store whose scaling
// slots are stale into one whose slots are valid: both are refused with an
// error naming Materialize, the receiver unchanged, so its single-block
// points stay exact.
func TestCombineRefusesStaleSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	a := randArray(rng, 16, 16)
	b := randArray(rng, 16, 16)
	for _, form := range []Form{Standard, NonStandard} {
		dir := t.TempDir()
		pa, pb := filepath.Join(dir, "a.wav"), filepath.Join(dir, "b.wav")
		sa, err := CreateStore(StoreOptions{Shape: []int{16, 16}, Form: form, Path: pa})
		if err != nil {
			t.Fatal(err)
		}
		if err := sa.Materialize(a); err != nil {
			t.Fatal(err)
		}
		sb, err := CreateStore(StoreOptions{Shape: []int{16, 16}, Form: form, Path: pb})
		if err != nil {
			t.Fatal(err)
		}
		if err := sb.TransformChunked(b, 2); err != nil {
			t.Fatal(err)
		}
		if err := sb.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := sb.Close(); err != nil {
			t.Fatal(err)
		}
		staleSlots(t, pb)
		if sb, err = OpenStore(pb); err != nil {
			t.Fatal(err)
		}
		for name, op := range map[string]func(*Store) error{"AddStore": sa.AddStore, "SubtractStore": sa.SubtractStore} {
			if err := op(sb); err == nil || !strings.Contains(err.Error(), "Materialize") {
				t.Errorf("%v: %s of a store with stale slots: err = %v, want one naming Materialize", form, name, err)
			}
		}
		for i := 0; i < 16; i++ {
			for j := 0; j < 16; j++ {
				v, _, err := sa.Point(i, j)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(v-a.At(i, j)) > 1e-9 {
					t.Fatalf("%v: cell (%d, %d) = %g after the refused combine, want %g", form, i, j, v, a.At(i, j))
				}
			}
		}
		sa.Close()
		sb.Close()
	}
}
