package reconstruct

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/bitutil"
	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/dyadic"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
	"github.com/shiftsplit/shiftsplit/internal/transform"
	"github.com/shiftsplit/shiftsplit/internal/wavelet"
)

// fixtureStandard materializes the standard transform of a dataset onto a
// counted tiled store.
func fixtureStandard(t *testing.T, src *ndarray.Array, b int) (*tile.Store, *storage.Counting) {
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
	counting := storage.NewCounting(storage.NewMemStore(tiling.BlockSize()))
	st, err := tile.NewStore(counting, tiling)
	if err != nil {
		t.Fatal(err)
	}
	oneChunk(t, st, src)
	counting.Reset()
	return st, counting
}

func fixtureNonStandard(t *testing.T, src *ndarray.Array, n, d, b int) (*tile.Store, *storage.Counting) {
	t.Helper()
	tiling := tile.NewNonStandard(n, d, b)
	counting := storage.NewCounting(storage.NewMemStore(tiling.BlockSize()))
	st, err := tile.NewStore(counting, tiling)
	if err != nil {
		t.Fatal(err)
	}
	oneChunk(t, st, src)
	counting.Reset()
	return st, counting
}

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

func TestDyadicStandardExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := dataset.Dense([]int{16, 16}, 1)
	st, _ := fixtureStandard(t, src, 2)
	for trial := 0; trial < 20; trial++ {
		levels := []int{rng.Intn(5), rng.Intn(5)}
		pos := []int{rng.Intn(16 >> uint(levels[0])), rng.Intn(16 >> uint(levels[1]))}
		block := dyadic.Range{dyadic.NewInterval(levels[0], pos[0]), dyadic.NewInterval(levels[1], pos[1])}
		got, io, err := DyadicStandard(st, block)
		if err != nil {
			t.Fatal(err)
		}
		want := src.SubCopy(block.Start(), block.Shape())
		if !got.EqualApprox(want, 1e-8) {
			t.Fatalf("block %v differs by %g", block, got.MaxAbsDiff(want))
		}
		if io <= 0 {
			t.Fatalf("block %v reported %d I/Os", block, io)
		}
	}
}

func TestDyadicNonStandardExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := dataset.Dense([]int{16, 16}, 2)
	st, _ := fixtureNonStandard(t, src, 4, 2, 2)
	for m := 0; m <= 4; m++ {
		side := 1 << uint(4-m)
		pos := []int{rng.Intn(side), rng.Intn(side)}
		got, io, err := DyadicNonStandard(st, m, pos)
		if err != nil {
			t.Fatal(err)
		}
		edge := 1 << uint(m)
		want := src.SubCopy([]int{pos[0] * edge, pos[1] * edge}, []int{edge, edge})
		if !got.EqualApprox(want, 1e-8) {
			t.Fatalf("m=%d pos=%v differs by %g", m, pos, got.MaxAbsDiff(want))
		}
		if io <= 0 {
			t.Fatal("no I/O reported")
		}
	}
}

func TestBoxExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := dataset.Dense([]int{32, 16}, 3)
	st, _ := fixtureStandard(t, src, 2)
	for trial := 0; trial < 15; trial++ {
		start := []int{rng.Intn(32), rng.Intn(16)}
		shape := []int{1 + rng.Intn(32-start[0]), 1 + rng.Intn(16-start[1])}
		got, _, err := Box(st, start, shape)
		if err != nil {
			t.Fatal(err)
		}
		want := src.SubCopy(start, shape)
		if !got.EqualApprox(want, 1e-8) {
			t.Fatalf("box %v+%v differs by %g", start, shape, got.MaxAbsDiff(want))
		}
	}
}

func TestBoxRejectsOutOfBounds(t *testing.T) {
	src := dataset.Dense([]int{8, 8}, 4)
	st, _ := fixtureStandard(t, src, 2)
	if _, _, err := Box(st, []int{4, 4}, []int{8, 2}); err == nil {
		t.Error("out-of-bounds box accepted")
	}
}

func TestNaiveFullAndPointwiseAgree(t *testing.T) {
	src := dataset.Dense([]int{16, 16}, 5)
	st, _ := fixtureStandard(t, src, 2)
	start, shape := []int{3, 5}, []int{6, 4}
	full, fullIO, err := naiveFull(t, st, start, shape)
	if err != nil {
		t.Fatal(err)
	}
	pw, pwIO, err := NaivePointwise(st, start, shape)
	if err != nil {
		t.Fatal(err)
	}
	want := src.SubCopy(start, shape)
	if !full.EqualApprox(want, 1e-8) || !pw.EqualApprox(want, 1e-8) {
		t.Fatal("baselines disagree with truth")
	}
	if fullIO != st.Tiling().NumBlocks() {
		t.Errorf("naiveFull read %d blocks, want all %d", fullIO, st.Tiling().NumBlocks())
	}
	if pwIO <= 0 {
		t.Error("pointwise reported no I/O")
	}
}

func TestShiftSplitBeatsNaiveFullForSmallRegions(t *testing.T) {
	// Result 6's point: extracting a small dyadic region must cost far less
	// than full reconstruction.
	src := dataset.Dense([]int{64, 64}, 6)
	st, _ := fixtureStandard(t, src, 2)
	block := dyadic.Range{dyadic.NewInterval(2, 3), dyadic.NewInterval(2, 7)}
	_, ssIO, err := DyadicStandard(st, block)
	if err != nil {
		t.Fatal(err)
	}
	_, fullIO, err := naiveFull(t, st, block.Start(), block.Shape())
	if err != nil {
		t.Fatal(err)
	}
	if ssIO*4 > fullIO {
		t.Errorf("shift-split I/O %d not clearly below full reconstruction %d", ssIO, fullIO)
	}
}

func TestDyadicBeatsPointwiseForMediumRegions(t *testing.T) {
	src := dataset.Dense([]int{64, 64}, 7)
	st, _ := fixtureStandard(t, src, 1)
	block := dyadic.Range{dyadic.NewInterval(4, 1), dyadic.NewInterval(4, 2)}
	_, ssIO, err := DyadicStandard(st, block)
	if err != nil {
		t.Fatal(err)
	}
	_, pwIO, err := NaivePointwise(st, block.Start(), block.Shape())
	if err != nil {
		t.Fatal(err)
	}
	// Pointwise re-walks full root paths per cell; the dyadic extraction
	// shares them. With caching readers the counts converge, but dyadic
	// must never lose.
	if ssIO > pwIO {
		t.Errorf("dyadic extraction I/O %d exceeds pointwise %d", ssIO, pwIO)
	}
}

func TestDyadicStandardWholeDomain(t *testing.T) {
	src := dataset.Dense([]int{8, 8}, 8)
	st, _ := fixtureStandard(t, src, 2)
	block := dyadic.Range{dyadic.NewInterval(3, 0), dyadic.NewInterval(3, 0)}
	got, _, err := DyadicStandard(st, block)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualApprox(src, 1e-8) {
		t.Error("whole-domain extraction differs")
	}
}

func TestBoxNonStandardExact(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	src := dataset.Dense([]int{32, 32}, 9)
	st, _ := fixtureNonStandard(t, src, 5, 2, 2)
	for trial := 0; trial < 25; trial++ {
		start := []int{rng.Intn(32), rng.Intn(32)}
		shape := []int{1 + rng.Intn(32-start[0]), 1 + rng.Intn(32-start[1])}
		got, io, err := BoxNonStandard(st, start, shape)
		if err != nil {
			t.Fatal(err)
		}
		want := src.SubCopy(start, shape)
		if !got.EqualApprox(want, 1e-7) {
			t.Fatalf("box %v+%v differs by %g", start, shape, got.MaxAbsDiff(want))
		}
		if io <= 0 {
			t.Fatal("no I/O reported")
		}
	}
}

func TestBoxNonStandard3D(t *testing.T) {
	src := dataset.Dense([]int{8, 8, 8}, 10)
	st, _ := fixtureNonStandard(t, src, 3, 3, 1)
	got, _, err := BoxNonStandard(st, []int{1, 2, 3}, []int{5, 4, 3})
	if err != nil {
		t.Fatal(err)
	}
	want := src.SubCopy([]int{1, 2, 3}, []int{5, 4, 3})
	if !got.EqualApprox(want, 1e-7) {
		t.Errorf("3-d box differs by %g", got.MaxAbsDiff(want))
	}
}

func TestBoxNonStandardRejectsBadInput(t *testing.T) {
	src := dataset.Dense([]int{8, 8}, 11)
	st, _ := fixtureNonStandard(t, src, 3, 2, 2)
	if _, _, err := BoxNonStandard(st, []int{4, 4}, []int{8, 2}); err == nil {
		t.Error("out-of-bounds box accepted")
	}
	if _, _, err := BoxNonStandard(st, []int{0}, []int{4}); err == nil {
		t.Error("wrong dims accepted")
	}
	stdStore, _ := fixtureStandard(t, src, 2)
	if _, _, err := BoxNonStandard(stdStore, []int{0, 0}, []int{4, 4}); err == nil {
		t.Error("standard tiling accepted")
	}
}

// callLog counts the read calls that reach the device.
type callLog struct {
	storage.BlockStore
	batches, singles int
}

func (c *callLog) ReadBlock(id int, buf []float64) error {
	c.singles++
	return c.BlockStore.ReadBlock(id, buf)
}

func (c *callLog) ReadBlocks(ids []int, bufs [][]float64) error {
	c.batches++
	return storage.ReadBlocksOf(c.BlockStore, ids, bufs)
}

// loggedStore lays hat out on a tiled store over a Counting over a callLog.
func loggedStore(t *testing.T, tiling tile.Tiling, hat *ndarray.Array) (*tile.Store, *storage.Counting, *callLog) {
	t.Helper()
	log := &callLog{BlockStore: storage.NewMemStore(tiling.BlockSize())}
	counting := storage.NewCounting(log)
	st, err := tile.NewStore(counting, tiling)
	if err != nil {
		t.Fatal(err)
	}
	if err := tile.WriteArray(st, hat); err != nil {
		t.Fatal(err)
	}
	return st, counting, log
}

// checkOneRead runs one extraction and holds it to what it read: one
// vectored call, its count equal to the blocks the device served.
func checkOneRead(t *testing.T, counting *storage.Counting, log *callLog, extract func() (*ndarray.Array, int, error)) (*ndarray.Array, int) {
	t.Helper()
	counting.Reset()
	log.batches, log.singles = 0, 0
	got, io, err := extract()
	if err != nil {
		t.Fatal(err)
	}
	if log.batches != 1 || log.singles != 0 {
		t.Fatalf("%d vectored and %d single reads, want one vectored read", log.batches, log.singles)
	}
	if reads := counting.Stats().Reads; int64(io) != reads {
		t.Fatalf("reported %d blocks, the device served %d", io, reads)
	}
	return got, io
}

func closeRel(got, want *ndarray.Array) bool {
	for i, w := range want.Data() {
		if math.Abs(got.Data()[i]-w) > 1e-12*math.Max(1, math.Abs(w)) {
			return false
		}
	}
	return true
}

// Every box is planned whole: one vectored read of the distinct blocks of
// its pieces' union, strictly fewer than a reader per piece paid on every
// box of more than one piece, and the cells the reader oracle gives.
func TestBoxReadsUnionOnce(t *testing.T) {
	type fixture struct {
		name  string
		shape []int
		st    *tile.Store
		box   func(start, shape []int) (*ndarray.Array, int)
	}
	var cases []fixture
	for i, g := range []struct {
		shape []int
		b     int
	}{{[]int{128}, 3}, {[]int{64, 16}, 2}, {[]int{16, 64}, 3}, {[]int{16, 8, 32}, 2}} {
		ns := make([]int, len(g.shape))
		for t, e := range g.shape {
			ns[t] = bitutil.Log2(e)
		}
		hat := wavelet.TransformStandard(dataset.Dense(g.shape, int64(40+i)))
		st, counting, log := loggedStore(t, tile.NewStandard(ns, g.b), hat)
		cases = append(cases, fixture{fmt.Sprintf("std%v/b=%d", g.shape, g.b), g.shape, st, func(start, shape []int) (*ndarray.Array, int) {
			return checkOneRead(t, counting, log, func() (*ndarray.Array, int, error) { return Box(st, start, shape) })
		}})
	}
	for i, g := range []struct{ n, d, b int }{{7, 1, 3}, {5, 2, 2}, {3, 3, 1}} {
		shape := make([]int, g.d)
		for t := range shape {
			shape[t] = 1 << uint(g.n)
		}
		hat := wavelet.TransformNonStandard(dataset.Dense(shape, int64(50+i)))
		st, counting, log := loggedStore(t, tile.NewNonStandard(g.n, g.d, g.b), hat)
		cases = append(cases, fixture{fmt.Sprintf("nonstd/n=%d/d=%d/b=%d", g.n, g.d, g.b), shape, st, func(start, shape []int) (*ndarray.Array, int) {
			return checkOneRead(t, counting, log, func() (*ndarray.Array, int, error) { return BoxNonStandard(st, start, shape) })
		}})
	}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(60))
		for trial := 0; trial < 25; trial++ {
			start, extent := make([]int, len(c.shape)), make([]int, len(c.shape))
			for i, e := range c.shape {
				start[i] = rng.Intn(e)
				extent[i] = 1 + rng.Intn(e-start[i])
			}
			if trial == 0 {
				copy(extent, c.shape)
				clear(start)
			}
			pieces, sum, union := pieceCounts(t, c.st, start, extent)
			want, _, err := naiveFull(t, c.st, start, extent)
			if err != nil {
				t.Fatal(err)
			}
			got, io := c.box(start, extent)
			if !closeRel(got, want) {
				t.Fatalf("%s box %v+%v differs from the oracle by %g", c.name, start, extent, got.MaxAbsDiff(want))
			}
			if io != union {
				t.Fatalf("%s box %v+%v read %d blocks, its pieces' union holds %d", c.name, start, extent, io, union)
			}
			if pieces > 1 && io >= sum {
				t.Fatalf("%s box %v+%v of %d pieces read %d blocks, a reader per piece %d", c.name, start, extent, pieces, io, sum)
			}
			if pieces == 1 && io != sum {
				t.Fatalf("%s dyadic box %v+%v read %d blocks, the reader %d", c.name, start, extent, io, sum)
			}
		}
	}
}

// On the coefficient-granular twin (a Sequential tiling of one coefficient
// per block) a dyadic block of 2^m per side costs Result 6's
// (M + log(N/M))^d coefficients, located one by one.
func TestSequentialTwinCountsResult6Coefficients(t *testing.T) {
	src := dataset.Dense([]int{64, 64}, 61)
	st, counting, log := loggedStore(t, tile.NewSequential([]int{64, 64}, 1), wavelet.TransformStandard(src))
	for m := 0; m <= 6; m++ {
		block := dyadic.Range{dyadic.NewInterval(m, 0), dyadic.NewInterval(m, (1<<uint(6-m))/2)}
		got, io := checkOneRead(t, counting, log, func() (*ndarray.Array, int, error) { return DyadicStandard(st, block) })
		if want := (1<<uint(m) + 6 - m) * (1<<uint(m) + 6 - m); io != want {
			t.Errorf("m=%d: %d coefficients, Result 6 gives %d", m, io, want)
		}
		if want := src.SubCopy(block.Start(), block.Shape()); !got.EqualApprox(want, 1e-9) {
			t.Errorf("m=%d: block differs by %g", m, got.MaxAbsDiff(want))
		}
	}
}

// The pointwise baseline reads the union of its cells' root paths, as the
// reader walking them cell by cell did, with one vectored read.
func TestNaivePointwiseReadsTheCellsPaths(t *testing.T) {
	src := dataset.Dense([]int{32, 16}, 62)
	st, counting, log := loggedStore(t, tile.NewStandard([]int{5, 4}, 2), wavelet.TransformStandard(src))
	start, shape := []int{3, 5}, []int{9, 6}
	r := newReader(t, st)
	out := ndarray.New(shape...)
	out.Each(func(coords []int, _ float64) {
		for _, c := range wavelet.PointPathStandard([]int{32, 16}, []int{start[0] + coords[0], start[1] + coords[1]}) {
			r.get(c.Coords)
		}
	})
	got, io := checkOneRead(t, counting, log, func() (*ndarray.Array, int, error) { return NaivePointwise(st, start, shape) })
	if io != len(r.cache) {
		t.Errorf("read %d blocks, the cells' paths span %d", io, len(r.cache))
	}
	if want := src.SubCopy(start, shape); !got.EqualApprox(want, 1e-9) {
		t.Errorf("box differs by %g", got.MaxAbsDiff(want))
	}
}

// Band with a dimension summed out answers the box's sums along it from the
// transform's index-0 face: one vectored read, fewer blocks than the box
// over the whole dimension, and the sums of the source cells.
func TestBandSumsOutItsDimension(t *testing.T) {
	for i, g := range []struct {
		shape []int
		b     int
	}{{[]int{64, 16}, 2}, {[]int{16, 8, 32}, 2}} {
		ns := make([]int, len(g.shape))
		for t, e := range g.shape {
			ns[t] = bitutil.Log2(e)
		}
		src := dataset.Dense(g.shape, int64(70+i))
		st, counting, log := loggedStore(t, tile.NewStandard(ns, g.b), wavelet.TransformStandard(src))
		rng := rand.New(rand.NewSource(71))
		for sum := range g.shape {
			for trial := 0; trial < 8; trial++ {
				start, extent := make([]int, len(g.shape)), make([]int, len(g.shape))
				for t, e := range g.shape {
					start[t] = rng.Intn(e)
					extent[t] = 1 + rng.Intn(e-start[t])
				}
				start[sum], extent[sum] = 0, g.shape[sum]
				whole := src.SubCopy(start, extent)
				_, full := checkOneRead(t, counting, log, func() (*ndarray.Array, int, error) { return Box(st, start, extent) })
				extent[sum] = 1
				want := ndarray.New(extent...)
				whole.Each(func(coords []int, v float64) {
					at := slices.Clone(coords)
					at[sum] = 0
					want.Add(v, at...)
				})
				got, io := checkOneRead(t, counting, log, func() (*ndarray.Array, int, error) { return Band(st, start, extent, sum) })
				if !closeRel(got, want) {
					t.Fatalf("%v: band %v+%v summing %d differs by %g", g.shape, start, extent, sum, got.MaxAbsDiff(want))
				}
				if io >= full {
					t.Fatalf("%v: band %v+%v summing %d read %d blocks, the whole box %d", g.shape, start, extent, sum, io, full)
				}
			}
		}
		if _, _, err := Band(st, make([]int, len(g.shape)), g.shape, 0); err == nil {
			t.Fatalf("%v: a band with a summed dimension of extent %d accepted", g.shape, g.shape[0])
		}
	}
}
