package query

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/bitutil"
	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
	"github.com/shiftsplit/shiftsplit/internal/transform"
	"github.com/shiftsplit/shiftsplit/internal/wavelet"
)

// oneChunk writes src's transform into st with the chunked engine of st's
// form, run as one chunk that covers the domain.
func oneChunk(t testing.TB, st *tile.Store, src *ndarray.Array) {
	t.Helper()
	m := bitutil.Log2(slices.Max(src.Shape()))
	var err error
	if _, ok := st.Tiling().(*tile.NonStandard); ok {
		_, err = transform.ChunkedNonStandard(src, m, st, 1)
	} else {
		_, err = transform.ChunkedStandard(src, m, st, 1)
	}
	if err != nil {
		t.Fatal(err)
	}
}

func materializedStandard(t *testing.T, src *ndarray.Array, b int) *tile.Store {
	t.Helper()
	shape := src.Shape()
	ns := make([]int, len(shape))
	for i, s := range shape {
		n := 0
		for 1<<uint(n) < s {
			n++
		}
		ns[i] = n
	}
	tiling := tile.NewStandard(ns, b)
	st, err := tile.NewStore(storage.NewMemStore(tiling.BlockSize()), tiling)
	if err != nil {
		t.Fatal(err)
	}
	oneChunk(t, st, src)
	return st
}

func materializedNonStandard(t *testing.T, src *ndarray.Array, n, d, b int) *tile.Store {
	t.Helper()
	tiling := tile.NewNonStandard(n, d, b)
	st, err := tile.NewStore(storage.NewMemStore(tiling.BlockSize()), tiling)
	if err != nil {
		t.Fatal(err)
	}
	oneChunk(t, st, src)
	return st
}

func TestPointStandardSingleBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := dataset.Dense([]int{32, 16}, 1)
	st := materializedStandard(t, src, 2)
	for trial := 0; trial < 100; trial++ {
		p := []int{rng.Intn(32), rng.Intn(16)}
		got, io, err := PointStandard(st, p)
		if err != nil {
			t.Fatal(err)
		}
		if io != 1 {
			t.Fatalf("point %v cost %d blocks, want 1", p, io)
		}
		if want := src.At(p...); math.Abs(got-want) > 1e-8 {
			t.Fatalf("point %v = %g, want %g", p, got, want)
		}
	}
}

func TestPointStandard1D(t *testing.T) {
	src := dataset.Dense([]int{64}, 2)
	st := materializedStandard(t, src, 3)
	for p := 0; p < 64; p++ {
		got, io, err := PointStandard(st, []int{p})
		if err != nil {
			t.Fatal(err)
		}
		if io != 1 {
			t.Fatalf("point %d cost %d blocks", p, io)
		}
		if want := src.At(p); math.Abs(got-want) > 1e-8 {
			t.Fatalf("point %d = %g, want %g", p, got, want)
		}
	}
}

func TestPointNonStandardSingleBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := dataset.Dense([]int{16, 16}, 3)
	st := materializedNonStandard(t, src, 4, 2, 2)
	for trial := 0; trial < 100; trial++ {
		p := []int{rng.Intn(16), rng.Intn(16)}
		got, io, err := PointNonStandard(st, p)
		if err != nil {
			t.Fatal(err)
		}
		if io != 1 {
			t.Fatalf("point %v cost %d blocks, want 1", p, io)
		}
		if want := src.At(p...); math.Abs(got-want) > 1e-8 {
			t.Fatalf("point %v = %g, want %g", p, got, want)
		}
	}
}

func TestPointNonStandard3D(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := dataset.Dense([]int{8, 8, 8}, 4)
	st := materializedNonStandard(t, src, 3, 3, 1)
	for trial := 0; trial < 50; trial++ {
		p := []int{rng.Intn(8), rng.Intn(8), rng.Intn(8)}
		got, io, err := PointNonStandard(st, p)
		if err != nil {
			t.Fatal(err)
		}
		if io != 1 {
			t.Fatalf("point %v cost %d blocks", p, io)
		}
		if want := src.At(p...); math.Abs(got-want) > 1e-8 {
			t.Fatalf("point %v = %g, want %g", p, got, want)
		}
	}
}

func TestPointViaRootPathCorrectAndCostlier(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	src := dataset.Dense([]int{64, 64}, 5)
	st := materializedStandard(t, src, 2)
	shape := []int{64, 64}
	for trial := 0; trial < 30; trial++ {
		p := []int{rng.Intn(64), rng.Intn(64)}
		got, io, err := PointViaRootPath(st, shape, p)
		if err != nil {
			t.Fatal(err)
		}
		if want := src.At(p...); math.Abs(got-want) > 1e-8 {
			t.Fatalf("point %v = %g, want %g", p, got, want)
		}
		if io < 1 {
			t.Fatal("no blocks read")
		}
		// The scaling-slot strategy is strictly cheaper.
		if _, one, _ := PointStandard(st, p); one >= io && io > 1 {
			t.Fatalf("root-path read %d blocks but single-tile read %d", io, one)
		}
	}
}

func TestTilingBeatsSequentialForPointQueries(t *testing.T) {
	// Ablation: the same root-path query on a sequential layout touches
	// more blocks than on the tree tiling (path locality).
	rng := rand.New(rand.NewSource(5))
	src := dataset.Dense([]int{64, 64}, 6)
	hat := wavelet.TransformStandard(src)
	shape := []int{64, 64}

	tiled := materializedStandard(t, src, 2)
	seqTiling := tile.NewSequential(shape, 16)
	seqStore, err := tile.NewStore(storage.NewMemStore(16), seqTiling)
	if err != nil {
		t.Fatal(err)
	}
	if err := tile.WriteArray(seqStore, hat); err != nil {
		t.Fatal(err)
	}
	var tiledIO, seqIO int
	for trial := 0; trial < 50; trial++ {
		p := []int{rng.Intn(64), rng.Intn(64)}
		_, io1, err := PointViaRootPath(tiled, shape, p)
		if err != nil {
			t.Fatal(err)
		}
		_, io2, err := PointViaRootPath(seqStore, shape, p)
		if err != nil {
			t.Fatal(err)
		}
		tiledIO += io1
		seqIO += io2
	}
	if tiledIO >= seqIO {
		t.Errorf("tiled point queries %d blocks, sequential %d — tiling should win", tiledIO, seqIO)
	}
}

func TestRangeSumStandard(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	src := dataset.Dense([]int{32, 32}, 7)
	st := materializedStandard(t, src, 2)
	shape := []int{32, 32}
	for trial := 0; trial < 50; trial++ {
		s := []int{rng.Intn(32), rng.Intn(32)}
		sh := []int{1 + rng.Intn(32-s[0]), 1 + rng.Intn(32-s[1])}
		got, io, err := RangeSumStandard(st, shape, s, sh)
		if err != nil {
			t.Fatal(err)
		}
		want := src.SumRange(s, sh)
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("box %v+%v = %g, want %g", s, sh, got, want)
		}
		if io < 1 || io > st.Tiling().NumBlocks() {
			t.Fatalf("box %v+%v read %d blocks", s, sh, io)
		}
	}
}

func TestRangeSumNonStandard(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := dataset.Dense([]int{16, 16}, 8)
	st := materializedNonStandard(t, src, 4, 2, 2)
	for trial := 0; trial < 50; trial++ {
		s := []int{rng.Intn(16), rng.Intn(16)}
		sh := []int{1 + rng.Intn(16-s[0]), 1 + rng.Intn(16-s[1])}
		got, io, err := RangeSumNonStandard(st, s, sh)
		if err != nil {
			t.Fatal(err)
		}
		want := src.SumRange(s, sh)
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("box %v+%v = %g, want %g", s, sh, got, want)
		}
		if io < 1 {
			t.Fatal("no blocks read")
		}
	}
}

func TestRangeSumFullDomainIsCheap(t *testing.T) {
	src := dataset.Dense([]int{64, 64}, 9)
	st := materializedStandard(t, src, 2)
	got, io, err := RangeSumStandard(st, []int{64, 64}, []int{0, 0}, []int{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-src.Sum()) > 1e-5 {
		t.Errorf("full sum %g, want %g", got, src.Sum())
	}
	if io != 1 {
		t.Errorf("full-domain sum read %d blocks, want 1 (just the average)", io)
	}
}

func TestQueryTypeErrors(t *testing.T) {
	seq := tile.NewSequential([]int{8}, 4)
	st, err := tile.NewStore(storage.NewMemStore(4), seq)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := PointStandard(st, []int{1}); err == nil {
		t.Error("PointStandard accepted a sequential tiling")
	}
	if _, _, err := PointNonStandard(st, []int{1}); err == nil {
		t.Error("PointNonStandard accepted a sequential tiling")
	}
	if _, _, err := RangeSumNonStandard(st, []int{0}, []int{1}); err == nil {
		t.Error("RangeSumNonStandard accepted a sequential tiling")
	}
}

func TestPointBatchSharesBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	src := dataset.Dense([]int{64, 64}, 10)
	st := materializedStandard(t, src, 2)
	shape := []int{64, 64}
	var points [][]int
	for i := 0; i < 50; i++ {
		points = append(points, []int{rng.Intn(64), rng.Intn(64)})
	}
	vals, batchIO, err := PointBatch(st, shape, points)
	if err != nil {
		t.Fatal(err)
	}
	var individualIO int
	for i, p := range points {
		v, io, err := PointViaRootPath(st, shape, p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v-vals[i]) > 1e-9 || math.Abs(v-src.At(p...)) > 1e-8 {
			t.Fatalf("point %v: batch %g, single %g, truth %g", p, vals[i], v, src.At(p...))
		}
		individualIO += io
	}
	if batchIO >= individualIO {
		t.Errorf("batch I/O %d should be below summed individual I/O %d", batchIO, individualIO)
	}
}
