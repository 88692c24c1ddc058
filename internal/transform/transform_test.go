package transform

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
	"github.com/shiftsplit/shiftsplit/internal/wavelet"
	"github.com/shiftsplit/shiftsplit/internal/zorder"
)

// countedStore builds MemStore -> Counting -> tile.Store.
func countedStore(t *testing.T, tiling tile.Tiling) (*tile.Store, *storage.Counting) {
	t.Helper()
	counting := storage.NewCounting(storage.NewMemStore(tiling.BlockSize()))
	st, err := tile.NewStore(counting, tiling)
	if err != nil {
		t.Fatal(err)
	}
	return st, counting
}

// verifyAgainst checks every coefficient in the store against want.
func verifyAgainst(t *testing.T, st *tile.Store, want *ndarray.Array, tol float64) {
	t.Helper()
	bad := 0
	var worst float64
	want.Each(func(coords []int, v float64) {
		got, err := st.Get(coords)
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(got - v); diff > tol {
			bad++
			if diff > worst {
				worst = diff
			}
		}
	})
	if bad > 0 {
		t.Fatalf("%d coefficients differ (worst %g)", bad, worst)
	}
}

func TestChunkedStandardCorrect(t *testing.T) {
	for _, c := range []struct {
		shape []int
		m, b  int
	}{
		{[]int{32}, 3, 2},
		{[]int{16, 16}, 2, 2},
		{[]int{16, 16}, 2, 1},
		{[]int{8, 8, 8}, 1, 2},
		{[]int{16, 16}, 4, 2}, // single chunk
	} {
		src := dataset.Dense(c.shape, 1)
		ns := make([]int, len(c.shape))
		for i, s := range c.shape {
			ns[i] = log2(s)
		}
		st, _ := countedStore(t, tile.NewStandard(ns, c.b))
		stats, err := ChunkedStandard(src, c.m, st, 0)
		if err != nil {
			t.Fatalf("shape %v: %v", c.shape, err)
		}
		if stats.InputCoefReads != int64(src.Size()) {
			t.Errorf("shape %v: input reads %d, want %d", c.shape, stats.InputCoefReads, src.Size())
		}
		verifyAgainst(t, st, wavelet.TransformStandard(src), 1e-8)
	}
}

func TestChunkedNonStandardCorrect(t *testing.T) {
	for _, c := range []struct{ n, d, m, b int }{
		{4, 2, 2, 2},
		{4, 2, 1, 2},
		{3, 3, 1, 1},
		{5, 1, 2, 2},
		{4, 2, 0, 2}, // single-cell chunks
	} {
		shape := make([]int, c.d)
		for i := range shape {
			shape[i] = 1 << uint(c.n)
		}
		src := dataset.Dense(shape, 3)
		st, _ := countedStore(t, tile.NewNonStandard(c.n, c.d, c.b))
		_, err := ChunkedNonStandard(src, c.m, st, 0)
		if err != nil {
			t.Fatalf("n=%d d=%d m=%d: %v", c.n, c.d, c.m, err)
		}
		verifyAgainst(t, st, wavelet.TransformNonStandard(src), 1e-8)
	}
}

func TestChunkedEnginesAreWriteOnly(t *testing.T) {
	// Both forms bucket into the write-once sink: no block is read, and
	// every block of a dense dataset is written exactly once.
	src := dataset.Dense([]int{32, 32}, 4)
	for _, c := range []struct {
		name   string
		tiling tile.Tiling
		engine func(*ndarray.Array, int, *tile.Store, int) (Stats, error)
	}{
		{"standard", tile.NewStandard([]int{5, 5}, 2), ChunkedStandard},
		{"non-standard", tile.NewNonStandard(5, 2, 2), ChunkedNonStandard},
	} {
		st, counting := countedStore(t, c.tiling)
		if _, err := c.engine(src, 2, st, 0); err != nil {
			t.Fatal(err)
		}
		if got := counting.Stats(); got.Reads != 0 || got.Writes != int64(c.tiling.NumBlocks()) {
			t.Errorf("%s: %d reads and %d writes, want 0 and one per block (%d)", c.name, got.Reads, got.Writes, c.tiling.NumBlocks())
		}
	}
}

func TestVitterCorrect(t *testing.T) {
	src := dataset.Dense([]int{16, 8}, 7)
	out := storage.NewCounting(storage.NewMemStore(4))
	stats, err := Vitter(src, 64, out, 4)
	if err != nil {
		t.Fatal(err)
	}
	if stats.InputCoefReads != int64(src.Size()) {
		t.Errorf("input reads = %d", stats.InputCoefReads)
	}
	// Read back through a fresh sequential store view.
	st, err := tile.NewStore(out, tile.NewSequential([]int{16, 8}, 4))
	if err != nil {
		t.Fatal(err)
	}
	verifyAgainst(t, st, wavelet.TransformStandard(src), 1e-8)
}

func TestVitterMemorySensitivity(t *testing.T) {
	// More memory must not increase Vitter's I/O, and should reduce it
	// substantially between starved and generous settings.
	src := dataset.Dense([]int{32, 32}, 8)
	measure := func(mem int) int64 {
		counting := storage.NewCounting(storage.NewMemStore(8))
		if _, err := Vitter(src, mem, counting, 8); err != nil {
			t.Fatal(err)
		}
		return counting.Stats().Total()
	}
	starved := measure(16)
	generous := measure(1024)
	if generous > starved {
		t.Errorf("generous memory I/O %d exceeds starved %d", generous, starved)
	}
	if starved == generous {
		t.Logf("warning: Vitter I/O flat in memory (%d)", starved)
	}
}

func TestShiftSplitBeatsVitter(t *testing.T) {
	// The headline claim of §6.1 at block granularity.
	shape := []int{32, 32}
	src := dataset.Dense(shape, 9)
	b := 2
	blockSize := 1 << uint(b*2)

	stS, cS := countedStore(t, tile.NewStandard([]int{5, 5}, b))
	if _, err := ChunkedStandard(src, 3, stS, 0); err != nil {
		t.Fatal(err)
	}
	stN, cN := countedStore(t, tile.NewNonStandard(5, 2, b))
	if _, err := ChunkedNonStandard(src, 3, stN, 0); err != nil {
		t.Fatal(err)
	}
	cV := storage.NewCounting(storage.NewMemStore(blockSize))
	if _, err := Vitter(src, 8*8, cV, blockSize); err != nil {
		t.Fatal(err)
	}
	if cS.Stats().Total() >= cV.Stats().Total() {
		t.Errorf("shift-split standard %d should beat Vitter %d", cS.Stats().Total(), cV.Stats().Total())
	}
	if cN.Stats().Total() >= cS.Stats().Total() {
		t.Errorf("non-standard %d should beat standard %d", cN.Stats().Total(), cS.Stats().Total())
	}
}

func TestChunkEdgeTooLarge(t *testing.T) {
	src := ndarray.New(8, 8)
	st, _ := countedStore(t, tile.NewStandard([]int{3, 3}, 2))
	if _, err := ChunkedStandard(src, 4, st, 0); err == nil {
		t.Error("oversized chunk accepted")
	}
}

func TestNonStandardRejectsNonCubic(t *testing.T) {
	src := ndarray.New(8, 16)
	st, _ := countedStore(t, tile.NewNonStandard(3, 2, 2))
	if _, err := ChunkedNonStandard(src, 1, st, 0); err == nil {
		t.Error("non-cubic dataset accepted")
	}
}

func TestSinkMemoryBound(t *testing.T) {
	// The sink holds the open blocks of a chunk's subtree and path, far
	// below the dataset size.
	src := dataset.Dense([]int{64, 64}, 10)
	st, _ := countedStore(t, tile.NewNonStandard(6, 2, 2))
	stats, err := ChunkedNonStandard(src, 2, st, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mem := stats.MaxOpenBlocks * st.Tiling().BlockSize(); mem >= src.Size()/4 {
		t.Errorf("sink memory %d too close to dataset size %d", mem, src.Size())
	}
}

func log2(x int) int {
	n := 0
	for 1<<uint(n) < x {
		n++
	}
	return n
}

func TestCoefficientIOIsExactlyOptimal(t *testing.T) {
	// Result 2 at coefficient granularity, on both forms: exactly N^d
	// writes, 0 reads.
	src := dataset.Dense([]int{32, 32}, 21)
	for _, engine := range []func(*ndarray.Array, int, *tile.Store, int) (Stats, error){ChunkedStandard, ChunkedNonStandard} {
		counting := storage.NewCounting(storage.NewMemStore(1))
		st, err := tile.NewStore(counting, tile.NewSequential([]int{32, 32}, 1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := engine(src, 2, st, 0); err != nil {
			t.Fatal(err)
		}
		if stats := counting.Stats(); stats.Reads != 0 || stats.Writes != 1024 {
			t.Errorf("I/O = %+v, want exactly 0 reads and 1024 writes", stats)
		}
	}
}

// TestChunkedEnginesWriteScalingSlots holds every block the chunked engines
// write, scaling slots included, at every chunk size to the layout the same
// engine writes as one chunk (m = n), for tile bits that do and do not
// divide the levels, and d = 1 to 3. The one-chunk layout is Materialize's:
// the root package's TestScalingSlotsSurviveMaintenance holds it, on both
// forms, to a layout derived from the definitions. Both forms also write
// each block exactly once and read none.
func TestChunkedEnginesWriteScalingSlots(t *testing.T) {
	same := func(t *testing.T, name string, got, want *tile.Store) {
		t.Helper()
		for id := 0; id < want.Tiling().NumBlocks(); id++ {
			g, err := got.ReadTile(id)
			if err != nil {
				t.Fatal(err)
			}
			w, err := want.ReadTile(id)
			if err != nil {
				t.Fatal(err)
			}
			for slot := range w {
				if math.Abs(g[slot]-w[slot]) > 1e-12*math.Max(1, math.Abs(w[slot])) {
					t.Fatalf("%s: block %d slot %d = %v, one chunk %v", name, id, slot, g[slot], w[slot])
				}
			}
		}
	}
	for _, c := range []struct{ n, d, b int }{{5, 1, 2}, {4, 2, 3}, {5, 2, 2}, {3, 3, 2}} {
		shape := make([]int, c.d)
		ns := make([]int, c.d)
		for i := range shape {
			shape[i], ns[i] = 1<<uint(c.n), c.n
		}
		src := dataset.Dense(shape, int64(c.n+c.d))
		wantStd, _ := countedStore(t, tile.NewStandard(ns, c.b))
		if _, err := ChunkedStandard(src, c.n, wantStd, 0); err != nil {
			t.Fatal(err)
		}
		wantNon, _ := countedStore(t, tile.NewNonStandard(c.n, c.d, c.b))
		if _, err := ChunkedNonStandard(src, c.n, wantNon, 0); err != nil {
			t.Fatal(err)
		}
		for m := 0; m <= c.n; m++ {
			name := func(engine string) string { return fmt.Sprintf("%s n=%d d=%d b=%d m=%d", engine, c.n, c.d, c.b, m) }
			for _, e := range []struct {
				name   string
				engine func(*ndarray.Array, int, *tile.Store, int) (Stats, error)
				tiling tile.Tiling
				want   *tile.Store
			}{
				{"standard", ChunkedStandard, tile.NewStandard(ns, c.b), wantStd},
				{"non-standard", ChunkedNonStandard, tile.NewNonStandard(c.n, c.d, c.b), wantNon},
			} {
				got, counting := countedStore(t, e.tiling)
				if _, err := e.engine(src, m, got, 0); err != nil {
					t.Fatal(err)
				}
				if st := counting.Stats(); st.Reads != 0 || st.Writes != int64(e.tiling.NumBlocks()) {
					t.Errorf("%s: %d reads and %d writes, want 0 and one per block (%d)", name(e.name), st.Reads, st.Writes, e.tiling.NumBlocks())
				}
				same(t, name(e.name), got, e.want)
			}
		}
	}
}

// TestMaxOpenBlocks holds the most blocks the write-once sink holds at once
// to the count of blocks whose first contribution comes at or before a
// chunk and whose last at or after it, the largest over the z-order
// schedule, on the benchmark geometry (1024², TileBits 4): 129, 132 and
// 192 blocks on the standard form at chunk bits 4, 5 and 7 (2.7–4.0 % of
// its 4 761), 6 and 66 on the non-standard form at 5 and 7.
func TestMaxOpenBlocks(t *testing.T) {
	src := dataset.Dense([]int{1024, 1024}, 1)
	for _, c := range []struct {
		nonStandard bool
		m, want     int
	}{{false, 4, 129}, {false, 5, 132}, {false, 7, 192}, {true, 5, 6}, {true, 7, 66}} {
		var tiling tile.Tiling = tile.NewStandard([]int{10, 10}, 4)
		engine := ChunkedStandard
		if c.nonStandard {
			tiling, engine = tile.NewNonStandard(10, 2, 4), ChunkedNonStandard
		}
		st, err := tile.NewStore(storage.NewMemStore(tiling.BlockSize()), tiling)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := engine(src, c.m, st, 0)
		if err != nil {
			t.Fatal(err)
		}
		if stats.MaxOpenBlocks != c.want {
			t.Errorf("non-standard=%v chunk bits %d: %d blocks open at most, want %d", c.nonStandard, c.m, stats.MaxOpenBlocks, c.want)
		}
	}
}

// TestZSchedule holds the chunk schedule to the z-order of the smallest
// power-of-two cube holding the grid with the cells outside it skipped,
// on square grids and grids whose extents differ, d = 1 to 3.
func TestZSchedule(t *testing.T) {
	for _, grid := range [][]int{{1}, {8}, {4, 4}, {8, 2}, {1, 4}, {2, 8, 4}, {4, 1, 2}, {2, 2, 2}} {
		side := 1
		for _, g := range grid {
			side = max(side, g)
		}
		var want []int
		zorder.Curve(len(grid), side, func(pos []int) {
			for i, p := range pos {
				if p >= grid[i] {
					return
				}
			}
			want = append(want, pos...)
		})
		if got := zSchedule(grid); !slices.Equal(got, want) {
			t.Errorf("grid %v: schedule %v, want %v", grid, got, want)
		}
	}
}
