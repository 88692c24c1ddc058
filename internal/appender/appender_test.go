package appender

import (
	"math/rand"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
)

func randSlab(rng *rand.Rand, shape ...int) *ndarray.Array {
	a := ndarray.New(shape...)
	for i := range a.Data() {
		a.Data()[i] = rng.NormFloat64() * 10
	}
	return a
}

func TestAppend1DNoExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, err := New([]int{32}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := ndarray.New(32)
	for i := 0; i < 4; i++ {
		slab := randSlab(rng, 8)
		st, err := a.Append(0, slab)
		if err != nil {
			t.Fatal(err)
		}
		if st.Expansions != 0 {
			t.Errorf("append %d triggered %d expansions", i, st.Expansions)
		}
		want.SubPaste(slab, []int{i * 8})
	}
	got, err := a.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualApprox(want, 1e-8) {
		t.Errorf("reconstruction differs by %g", got.MaxAbsDiff(want))
	}
	if u := a.Used(); u[0] != 32 {
		t.Errorf("used = %v", u)
	}
}

func TestAppendTriggersExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, err := New([]int{8}, 2)
	if err != nil {
		t.Fatal(err)
	}
	slab1 := randSlab(rng, 8)
	if _, err := a.Append(0, slab1); err != nil {
		t.Fatal(err)
	}
	slab2 := randSlab(rng, 8)
	st, err := a.Append(0, slab2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Expansions != 1 {
		t.Fatalf("expected 1 expansion, got %d", st.Expansions)
	}
	if sh := a.Shape(); sh[0] != 16 {
		t.Fatalf("shape after expansion = %v", sh)
	}
	if st.ExpansionIO.Total() == 0 {
		t.Error("expansion reported zero I/O")
	}
	want := ndarray.New(16)
	want.SubPaste(slab1, []int{0})
	want.SubPaste(slab2, []int{8})
	got, err := a.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualApprox(want, 1e-8) {
		t.Errorf("reconstruction differs by %g", got.MaxAbsDiff(want))
	}
}

func TestAppendMultipleExpansions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, err := New([]int{4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Append(0, randSlab(rng, 4)); err != nil {
		t.Fatal(err)
	}
	// Appending 16 values to a full 4-domain needs two doublings (4->8->16)
	// to reach 20 used... 4+16=20 > 16, so three (to 32).
	st, err := a.Append(0, randSlab(rng, 16))
	if err != nil {
		t.Fatal(err)
	}
	if st.Expansions != 3 {
		t.Errorf("expansions = %d, want 3", st.Expansions)
	}
	if sh := a.Shape(); sh[0] != 32 {
		t.Errorf("shape = %v", sh)
	}
}

func TestAppend3DPrecipitationScenario(t *testing.T) {
	// The Figure 13 shape: 8x8 spatial grid, monthly 32-day slabs along time.
	rng := rand.New(rand.NewSource(4))
	a, err := New([]int{8, 8, 32}, 1)
	if err != nil {
		t.Fatal(err)
	}
	months := 6
	full := dataset.Precipitation([]int{8, 8, 32 * months}, 11)
	expansions := 0
	for mo := 0; mo < months; mo++ {
		slab := full.SubCopy([]int{0, 0, mo * 32}, []int{8, 8, 32})
		st, err := a.Append(2, slab)
		if err != nil {
			t.Fatalf("month %d: %v", mo, err)
		}
		expansions += st.Expansions
		_ = rng
	}
	// 6 months of 32 days in a domain starting at 32: 32->64->128->256,
	// so 3 expansions.
	if expansions != 3 {
		t.Errorf("expansions = %d, want 3", expansions)
	}
	got, err := a.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	want := ndarray.New(8, 8, 256)
	want.SubPaste(full, []int{0, 0, 0})
	if !got.EqualApprox(want, 1e-8) {
		t.Errorf("reconstruction differs by %g", got.MaxAbsDiff(want))
	}
}

func TestAppendRejectsBadSlab(t *testing.T) {
	a, err := New([]int{8, 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Append(0, ndarray.New(4)); err == nil {
		t.Error("wrong dimensionality accepted")
	}
	if _, err := a.Append(2, ndarray.New(4, 4)); err == nil {
		t.Error("out-of-range dim accepted")
	}
	if _, err := a.Append(0, ndarray.New(4, 16)); err == nil {
		t.Error("cross extent larger than domain accepted")
	}
}

func TestAppendCrossExtentMustMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, err := New([]int{8, 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Append(1, randSlab(rng, 4, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Append(1, randSlab(rng, 8, 8)); err == nil {
		t.Error("mismatched cross extent accepted")
	}
}

func TestAppendUnalignedLength(t *testing.T) {
	// A slab of length 12 decomposes into dyadic runs 8+4 (not aligned to
	// one block); correctness must not depend on alignment.
	rng := rand.New(rand.NewSource(6))
	a, err := New([]int{32}, 2)
	if err != nil {
		t.Fatal(err)
	}
	s1 := randSlab(rng, 12)
	if _, err := a.Append(0, s1); err != nil {
		t.Fatal(err)
	}
	s2 := randSlab(rng, 12)
	if _, err := a.Append(0, s2); err != nil {
		t.Fatal(err)
	}
	want := ndarray.New(32)
	want.SubPaste(s1, []int{0})
	want.SubPaste(s2, []int{12})
	got, err := a.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualApprox(want, 1e-8) {
		t.Errorf("reconstruction differs by %g", got.MaxAbsDiff(want))
	}
}

// TestExpansionCostsNoMoreThanAMerge is Figure 13's setting with the
// jumps gone. The paper's expansion rewrites the whole transform and
// dwarfs a routine monthly merge; growing the outermost, growth-ordered
// dimension rewrites the top band of tiles along it, so no expansion
// costs more than the cheapest routine merge, however large the domain.
func TestExpansionCostsNoMoreThanAMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, err := New([]int{8, 8, 32}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var mergeMin, expansionMax int64
	expansions := 0
	for mo := 0; mo < 18; mo++ {
		st, err := a.Append(2, randSlab(rng, 8, 8, 32))
		if err != nil {
			t.Fatal(err)
		}
		expansions += st.Expansions
		expansionMax = max(expansionMax, st.ExpansionIO.Total())
		if mo >= 10 && st.Expansions == 0 && (mergeMin == 0 || st.MergeIO.Total() < mergeMin) {
			mergeMin = st.MergeIO.Total()
		}
	}
	if expansions < 3 || mergeMin == 0 {
		t.Fatalf("%d expansions and no late routine merge (%d): the scenario lost its shape", expansions, mergeMin)
	}
	if expansionMax > mergeMin {
		t.Errorf("largest expansion I/O %d exceeds the cheapest routine merge %d", expansionMax, mergeMin)
	}
}

func TestTotalIOMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a, err := New([]int{16}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var prev int64
	for i := 0; i < 6; i++ {
		if _, err := a.Append(0, randSlab(rng, 8)); err != nil {
			t.Fatal(err)
		}
		total := a.TotalIO().Total()
		if total < prev {
			t.Fatalf("TotalIO went backwards: %d -> %d", prev, total)
		}
		prev = total
	}
	if prev == 0 {
		t.Error("no I/O recorded")
	}
}
