package query

import (
	"math"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
)

func vStdStore(t *testing.T, shape []int) *tile.Store {
	t.Helper()
	ns := make([]int, len(shape))
	for i, s := range shape {
		n := 0
		for e := s; e > 1; e /= 2 {
			n++
		}
		ns[i] = n
	}
	tiling := tile.NewStandard(ns, 2)
	st, err := tile.NewStore(storage.NewMemStore(tiling.BlockSize()), tiling)
	if err != nil {
		t.Fatal(err)
	}
	oneChunk(t, st, dataset.Dense(shape, 1))
	return st
}

func vNonStdStore(t *testing.T, n, d int) *tile.Store {
	t.Helper()
	tiling := tile.NewNonStandard(n, d, 2)
	st, err := tile.NewStore(storage.NewMemStore(tiling.BlockSize()), tiling)
	if err != nil {
		t.Fatal(err)
	}
	shape := make([]int, d)
	for i := range shape {
		shape[i] = 1 << uint(n)
	}
	oneChunk(t, st, dataset.Dense(shape, 1))
	return st
}

// Every query entry point must reject malformed inputs with an error — not
// a panic — since they sit behind the network API.
func TestQueryEntryPointsRejectBadInputsWithoutPanic(t *testing.T) {
	shape := []int{16, 16}
	std := vStdStore(t, shape)
	nonstd := vNonStdStore(t, 4, 2)

	badPoints := [][]int{
		nil,
		{},
		{1},
		{1, 2, 3},
		{-1, 0},
		{0, -5},
		{16, 0},
		{0, 1 << 40},
		{math.MaxInt, math.MaxInt},
	}
	for _, p := range badPoints {
		if _, _, err := PointStandard(std, p); err == nil {
			t.Errorf("PointStandard(%v): no error", p)
		}
		if _, _, err := PointNonStandard(nonstd, p); err == nil {
			t.Errorf("PointNonStandard(%v): no error", p)
		}
		if _, _, err := PointViaRootPath(std, shape, p); err == nil {
			t.Errorf("PointViaRootPath(%v): no error", p)
		}
		if _, _, err := PointBatch(std, shape, [][]int{{1, 1}, p}); err == nil {
			t.Errorf("PointBatch(%v): no error", p)
		}
	}

	badBoxes := []struct{ start, extent []int }{
		{nil, nil},
		{[]int{0}, []int{4}},
		{[]int{0, 0}, []int{4}},
		{[]int{-1, 0}, []int{4, 4}},
		{[]int{0, 0}, []int{0, 4}},
		{[]int{0, 0}, []int{-2, 4}},
		{[]int{0, 0}, []int{17, 1}},
		{[]int{12, 0}, []int{8, 4}},
		{[]int{math.MaxInt - 1, 0}, []int{4, 4}},
		{[]int{4, 4}, []int{math.MaxInt, math.MaxInt}},
	}
	for _, b := range badBoxes {
		if _, _, err := RangeSumStandard(std, shape, b.start, b.extent); err == nil {
			t.Errorf("RangeSumStandard(%v,%v): no error", b.start, b.extent)
		}
		if _, _, err := RangeSumNonStandard(nonstd, b.start, b.extent); err == nil {
			t.Errorf("RangeSumNonStandard(%v,%v): no error", b.start, b.extent)
		}
		if _, err := ProgressiveRangeSum(std, shape, b.start, b.extent); err == nil {
			t.Errorf("ProgressiveRangeSum(%v,%v): no error", b.start, b.extent)
		}
	}
}

// Valid queries still work after the validation change, and the streaming
// progressive form agrees with the batch form.
func TestProgressiveFuncMatchesBatch(t *testing.T) {
	shape := []int{16, 16}
	std := vStdStore(t, shape)
	start, extent := []int{3, 2}, []int{7, 9}
	want, err := ProgressiveRangeSum(std, shape, start, extent)
	if err != nil {
		t.Fatal(err)
	}
	var got []ProgressiveStep
	err = ProgressiveRangeSumFunc(std, shape, start, extent, func(s ProgressiveStep) error {
		got = append(got, s)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("steps: %d vs %d", len(got), len(want))
	}
	final := got[len(got)-1]
	exact, _, err := RangeSumStandard(std, shape, start, extent)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(final.Estimate-exact) > 1e-9 {
		t.Errorf("final estimate %v, exact %v", final.Estimate, exact)
	}
}
