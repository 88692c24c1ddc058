package appender

import (
	"math"
	"math/rand"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/storage"
)

func TestNonStdAppendAndReconstruct(t *testing.T) {
	a, err := NewNonStd(3, 2, 2) // 8x8 hypercubes
	if err != nil {
		t.Fatal(err)
	}
	var cubes []*ndarray.Array
	for h := 0; h < 5; h++ {
		cube := dataset.Dense([]int{8, 8}, int64(h+1))
		cubes = append(cubes, cube)
		if err := a.Append(cube); err != nil {
			t.Fatal(err)
		}
	}
	if a.Hypercubes() != 5 {
		t.Errorf("Hypercubes = %d", a.Hypercubes())
	}
	if sh := a.Shape(); sh[0] != 8 || sh[1] != 40 {
		t.Errorf("Shape = %v", sh)
	}
	got, err := a.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	for h, cube := range cubes {
		sub := got.SubCopy([]int{0, h * 8}, []int{8, 8})
		if !sub.EqualApprox(cube, 1e-8) {
			t.Fatalf("hypercube %d differs by %g", h, sub.MaxAbsDiff(cube))
		}
	}
}

func TestNonStdPointQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, err := NewNonStd(2, 3, 1) // 4x4x4 hypercubes, 3-d
	if err != nil {
		t.Fatal(err)
	}
	var cubes []*ndarray.Array
	for h := 0; h < 3; h++ {
		cube := dataset.Dense([]int{4, 4, 4}, int64(10+h))
		cubes = append(cubes, cube)
		if err := a.Append(cube); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 60; trial++ {
		h := rng.Intn(3)
		p := []int{rng.Intn(4), rng.Intn(4), h*4 + rng.Intn(4)}
		got, err := a.PointAt(p)
		if err != nil {
			t.Fatal(err)
		}
		want := cubes[h].At(p[0], p[1], p[2]%4)
		if math.Abs(got-want) > 1e-8 {
			t.Fatalf("point %v: %g vs %g", p, got, want)
		}
	}
	if _, err := a.PointAt([]int{0, 0, 100}); err == nil {
		t.Error("out-of-range time accepted")
	}
}

func TestNonStdRangeSums(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, err := NewNonStd(3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	full := ndarray.New(8, 32)
	for h := 0; h < 4; h++ {
		cube := dataset.Dense([]int{8, 8}, int64(20+h))
		full.SubPaste(cube, []int{0, h * 8})
		if err := a.Append(cube); err != nil {
			t.Fatal(err)
		}
	}
	// Spatially full, time-spanning boxes (the averages-tree fast path).
	for trial := 0; trial < 20; trial++ {
		t0 := rng.Intn(32)
		t1 := t0 + 1 + rng.Intn(32-t0)
		got, err := a.RangeSum([]int{0, t0}, []int{8, t1 - t0})
		if err != nil {
			t.Fatal(err)
		}
		want := full.SumRange([]int{0, t0}, []int{8, t1 - t0})
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("time box [%d,%d): %g vs %g", t0, t1, got, want)
		}
	}
	// General boxes.
	for trial := 0; trial < 30; trial++ {
		s := []int{rng.Intn(8), rng.Intn(32)}
		sh := []int{1 + rng.Intn(8-s[0]), 1 + rng.Intn(32-s[1])}
		got, err := a.RangeSum(s, sh)
		if err != nil {
			t.Fatal(err)
		}
		want := full.SumRange(s, sh)
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("box %v+%v: %g vs %g", s, sh, got, want)
		}
	}
}

func TestNonStdAppendCostIndependentOfHistory(t *testing.T) {
	// Old hypercubes are never touched: per-append I/O must not grow with T
	// (apart from the rare averages-tree expansions).
	a, err := NewNonStd(3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var costs []int64
	prev := int64(0)
	for h := 0; h < 16; h++ {
		if err := a.Append(dataset.Dense([]int{8, 8}, int64(h))); err != nil {
			t.Fatal(err)
		}
		total := a.TotalIO().Total()
		costs = append(costs, total-prev)
		prev = total
	}
	// Compare a late non-expansion append with an early one.
	if costs[14] > costs[2]*2 {
		t.Errorf("append cost grew with history: early %d, late %d (all %v)", costs[2], costs[14], costs)
	}
}

func TestNonStdRejectsBadHypercube(t *testing.T) {
	a, err := NewNonStd(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Append(ndarray.New(4)); err == nil {
		t.Error("wrong dims accepted")
	}
	if err := a.Append(ndarray.New(8, 8)); err == nil {
		t.Error("wrong edge accepted")
	}
}

// readLog counts the read calls that reach the device.
type readLog struct {
	storage.BlockStore
	batches, singles int
}

func (r *readLog) ReadBlock(id int, buf []float64) error {
	r.singles++
	return r.BlockStore.ReadBlock(id, buf)
}

func (r *readLog) ReadBlocks(ids []int, bufs [][]float64) error {
	r.batches++
	return storage.ReadBlocksOf(r.BlockStore, ids, bufs)
}

// Reconstruct reads each hypercube's tiles with one vectored read, and a
// point reads its quadtree path with one.
func TestNonStdReadsOncePerHypercube(t *testing.T) {
	a, err := NewNonStd(3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	log := &readLog{BlockStore: a.device}
	a.count = storage.NewCounting(log)
	for h := 0; h < 3; h++ {
		if err := a.Append(dataset.Dense([]int{8, 8}, int64(30+h))); err != nil {
			t.Fatal(err)
		}
	}
	log.batches, log.singles = 0, 0
	a.count.Reset()
	if _, err := a.Reconstruct(); err != nil {
		t.Fatal(err)
	}
	if log.batches != 3 || log.singles != 0 {
		t.Errorf("Reconstruct: %d vectored and %d single reads, want 3 vectored", log.batches, log.singles)
	}
	if reads, want := a.count.Stats().Reads, int64(3*a.tiling.NumBlocks()); reads != want {
		t.Errorf("Reconstruct read %d blocks, want every tile of 3 hypercubes (%d)", reads, want)
	}
	log.batches, log.singles = 0, 0
	if _, err := a.PointAt([]int{5, 19}); err != nil {
		t.Fatal(err)
	}
	if log.batches != 1 || log.singles != 0 {
		t.Errorf("PointAt: %d vectored and %d single reads, want 1 vectored", log.batches, log.singles)
	}
}
