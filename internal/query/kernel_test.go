package query

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/bitutil"
	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
	"github.com/shiftsplit/shiftsplit/internal/wavelet"
)

// kernelCase is one tiled store of each form the property tests run on.
type kernelCase struct {
	name  string
	shape []int
	b     int
	src   *ndarray.Array
	st    *tile.Store
	base  *flakyStore
}

// flakyStore is a MemStore whose reads fail with errFlaky while armed,
// without allocating, so the error path can be held to the alloc gate too.
type flakyStore struct {
	*storage.MemStore
	fail bool
}

var errFlaky = errors.New("flaky read")

func (f *flakyStore) ReadBlock(id int, buf []float64) error {
	if f.fail {
		return errFlaky
	}
	return f.MemStore.ReadBlock(id, buf)
}

func (f *flakyStore) ReadBlocks(ids []int, bufs [][]float64) error {
	if f.fail {
		return errFlaky
	}
	return f.MemStore.ReadBlocks(ids, bufs)
}

func log2s(shape []int) []int {
	ns := make([]int, len(shape))
	for i, s := range shape {
		for 1<<uint(ns[i]) < s {
			ns[i]++
		}
	}
	return ns
}

func standardCase(t testing.TB, shape []int, b int, seed int64) kernelCase {
	t.Helper()
	tiling := tile.NewStandard(log2s(shape), b)
	base := &flakyStore{MemStore: storage.NewMemStore(tiling.BlockSize())}
	st, err := tile.NewStore(base, tiling)
	if err != nil {
		t.Fatal(err)
	}
	src := dataset.Dense(shape, seed)
	if err := tile.WriteArray(st, wavelet.TransformStandard(src)); err != nil {
		t.Fatal(err)
	}
	return kernelCase{name: fmt.Sprintf("std%v/b=%d", shape, b), shape: shape, b: b, src: src, st: st, base: base}
}

func nonStandardCase(t testing.TB, n, d, b int, seed int64) kernelCase {
	t.Helper()
	shape := make([]int, d)
	for i := range shape {
		shape[i] = 1 << uint(n)
	}
	tiling := tile.NewNonStandard(n, d, b)
	base := &flakyStore{MemStore: storage.NewMemStore(tiling.BlockSize())}
	st, err := tile.NewStore(base, tiling)
	if err != nil {
		t.Fatal(err)
	}
	src := dataset.Dense(shape, seed)
	if err := tile.WriteArray(st, wavelet.TransformNonStandard(src)); err != nil {
		t.Fatal(err)
	}
	return kernelCase{name: fmt.Sprintf("nonstd/n=%d/d=%d/b=%d", n, d, b), shape: shape, b: b, src: src, st: st, base: base}
}

// Shapes cover d = 1, 2, 3, non-square standard domains and b not dividing
// n (a shallower top tile), which is where the tile arithmetic can slip.
func standardCases(t testing.TB) []kernelCase {
	return []kernelCase{
		standardCase(t, []int{128}, 3, 1),
		standardCase(t, []int{64, 16}, 2, 2),
		standardCase(t, []int{32, 128}, 3, 3),
		standardCase(t, []int{16, 8, 32}, 2, 4),
		standardCase(t, []int{1, 8}, 2, 5),
	}
}

func nonStandardCases(t testing.TB) []kernelCase {
	return []kernelCase{
		nonStandardCase(t, 7, 1, 3, 6),
		nonStandardCase(t, 6, 2, 2, 7),
		nonStandardCase(t, 5, 2, 3, 8),
		nonStandardCase(t, 4, 3, 3, 9),
		nonStandardCase(t, 0, 2, 2, 10),
	}
}

// boxes returns the seeded boxes of a case: random ones plus, per
// dimension, boxes touching each domain edge, every 1-cell corner and the
// full domain.
func boxes(rng *rand.Rand, shape []int, random int) (starts, extents [][]int) {
	d := len(shape)
	add := func(s, e []int) {
		starts = append(starts, append([]int(nil), s...))
		extents = append(extents, append([]int(nil), e...))
	}
	s, e := make([]int, d), make([]int, d)
	for i := 0; i < random; i++ {
		for t, n := range shape {
			s[t] = rng.Intn(n)
			e[t] = 1 + rng.Intn(n-s[t])
		}
		add(s, e)
	}
	for t := 0; t < d; t++ {
		for side := 0; side < 2; side++ {
			for u, n := range shape {
				s[u] = rng.Intn(n)
				e[u] = 1 + rng.Intn(n-s[u])
			}
			if side == 0 {
				s[t] = 0
				e[t] = 1 + rng.Intn(shape[t])
			} else {
				e[t] = shape[t] - s[t]
			}
			add(s, e)
		}
	}
	for corner := 0; corner < 1<<uint(d); corner++ {
		for t, n := range shape {
			s[t], e[t] = 0, 1
			if corner>>uint(t)&1 == 1 {
				s[t] = n - 1
			}
		}
		add(s, e)
	}
	for t, n := range shape {
		s[t], e[t] = 0, n
	}
	add(s, e)
	return starts, extents
}

func closeRel(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

func TestRangeSumStandardMatchesOracles(t *testing.T) {
	for _, c := range standardCases(t) {
		rng := rand.New(rand.NewSource(11))
		starts, extents := boxes(rng, c.shape, 150)
		for i := range starts {
			s, e := starts[i], extents[i]
			got, io, err := RangeSumStandard(c.st, c.shape, s, e)
			if err != nil {
				t.Fatalf("%s box %v+%v: %v", c.name, s, e, err)
			}
			old, oldIO, err := oldRangeSumStandard(c.st, c.shape, s, e)
			if err != nil {
				t.Fatal(err)
			}
			if want := c.src.SumRange(s, e); !closeRel(got, want) || !closeRel(got, old) {
				t.Fatalf("%s box %v+%v = %g, dense %g, old kernel %g", c.name, s, e, got, want, old)
			}
			if io != oldIO {
				t.Fatalf("%s box %v+%v read %d blocks, old kernel %d", c.name, s, e, io, oldIO)
			}
		}
	}
}

func TestRangeSumNonStandardMatchesOracles(t *testing.T) {
	for _, c := range nonStandardCases(t) {
		rng := rand.New(rand.NewSource(12))
		starts, extents := boxes(rng, c.shape, 150)
		for i := range starts {
			s, e := starts[i], extents[i]
			got, io, err := RangeSumNonStandard(c.st, s, e)
			if err != nil {
				t.Fatalf("%s box %v+%v: %v", c.name, s, e, err)
			}
			old, oldIO, err := oldRangeSumNonStandard(c.st, s, e)
			if err != nil {
				t.Fatal(err)
			}
			if want := c.src.SumRange(s, e); !closeRel(got, want) || !closeRel(got, old) {
				t.Fatalf("%s box %v+%v = %g, dense %g, old kernel %g", c.name, s, e, got, want, old)
			}
			if io != oldIO {
				t.Fatalf("%s box %v+%v read %d blocks, old kernel %d", c.name, s, e, io, oldIO)
			}
		}
	}
}

// tileBoxes returns boxes shaped against the tiling's tiles: for every
// tile-root level (cell edge u) and dimension, a box whose face along that
// dimension lies on a tile edge at its low side only and one at its high
// side only, one a single cell wide, one inside a single level-u cell with
// neither end on its edges (lo = hi at that level, both ends cut), and one
// inside a single tile, on every dimension.
func tileBoxes(rng *rand.Rand, tiling *tile.NonStandard, reps int) (starts, extents [][]int) {
	shape := tiling.Domain()
	d, size := len(shape), shape[0]
	random := func(s, e []int) {
		for t := range s {
			s[t] = rng.Intn(size)
			e[t] = 1 + rng.Intn(size-s[t])
		}
	}
	// within picks [s, s+e) inside the u-cell k, strictly inside when it can.
	within := func(u int, strict bool) (int, int) {
		k := rng.Intn(size / u)
		if !strict || u < 4 {
			s := rng.Intn(u)
			return k*u + s, 1 + rng.Intn(u-s)
		}
		s := 1 + rng.Intn(u-2)
		return k*u + s, 1 + rng.Intn(u-1-s)
	}
	for j := bitutil.Log2(size); j >= 1; j-- {
		if !tiling.Level(j).TileRoot() {
			continue
		}
		u := 1 << uint(j)
		for r := 0; r < reps; r++ {
			for t := 0; t < d; t++ {
				for kind := 0; kind < 5; kind++ {
					s, e := make([]int, d), make([]int, d)
					random(s, e)
					switch kind {
					case 0: // tile edge at the low side only
						s[t] = u * rng.Intn(size/u)
						e[t] = 1 + rng.Intn(size-s[t])
						if (s[t]+e[t])%u == 0 && e[t] > 1 {
							e[t]--
						}
					case 1: // tile edge at the high side only
						hi := u * (1 + rng.Intn(size/u))
						s[t] = rng.Intn(hi)
						if s[t]%u == 0 && s[t]+1 < hi {
							s[t]++
						}
						e[t] = hi - s[t]
					case 2: // one cell wide
						e[t] = 1
					case 3: // lo = hi at level j, both ends cut
						s[t], e[t] = within(u, true)
					case 4: // inside a single tile
						for x := range s {
							s[x], e[x] = within(u, false)
						}
					}
					starts, extents = append(starts, s), append(extents, e)
				}
			}
		}
	}
	return starts, extents
}

// The fold's tile arithmetic on the boxes that stress it (tileBoxes) and
// on random ones, over the benchmark harness's geometry — n = 10, d = 2,
// b = 4: b ∤ n, so the top tile is 2 levels high — and over d = 3, where a
// face interior is a 2-d box of runs, besides the property cases: every
// box agrees with the dense array and with the old descent, and reads the
// same blocks.
func TestRangeSumNonStandardTileShapedBoxes(t *testing.T) {
	cases := append(nonStandardCases(t), nonStandardCase(t, 10, 2, 4, 28), nonStandardCase(t, 5, 3, 2, 29))
	for _, c := range cases {
		rng := rand.New(rand.NewSource(30))
		starts, extents := tileBoxes(rng, c.st.Tiling().(*tile.NonStandard), 2)
		rs, re := boxes(rng, c.shape, 40)
		starts, extents = append(starts, rs...), append(extents, re...)
		for i := range starts {
			s, e := starts[i], extents[i]
			got, io, err := RangeSumNonStandard(c.st, s, e)
			if err != nil {
				t.Fatalf("%s box %v+%v: %v", c.name, s, e, err)
			}
			old, oldIO, err := oldRangeSumNonStandard(c.st, s, e)
			if err != nil {
				t.Fatal(err)
			}
			if want := c.src.SumRange(s, e); !closeRel(got, want) || !closeRel(got, old) {
				t.Fatalf("%s box %v+%v = %g, dense %g, old kernel %g", c.name, s, e, got, want, old)
			}
			if io != oldIO {
				t.Fatalf("%s box %v+%v read %d blocks, old kernel %d", c.name, s, e, io, oldIO)
			}
		}
	}
}

func TestPointKernelsMatchOracles(t *testing.T) {
	for _, c := range standardCases(t) {
		rng := rand.New(rand.NewSource(13))
		var points [][]int
		for i := 0; i < 60; i++ {
			p := make([]int, len(c.shape))
			for t, n := range c.shape {
				p[t] = rng.Intn(n)
			}
			if i < 2 { // both extreme corners
				for t, n := range c.shape {
					p[t] = i * (n - 1)
				}
			}
			points = append(points, p)
			got, io, err := PointViaRootPath(c.st, c.shape, p)
			if err != nil {
				t.Fatalf("%s point %v: %v", c.name, p, err)
			}
			old, oldIO, err := oldPointViaRootPath(c.st, c.shape, p)
			if err != nil {
				t.Fatal(err)
			}
			if want := c.src.At(p...); !closeRel(got, want) || !closeRel(got, old) {
				t.Fatalf("%s point %v = %g, dense %g, old kernel %g", c.name, p, got, want, old)
			}
			if io != oldIO {
				t.Fatalf("%s point %v read %d blocks, old kernel %d", c.name, p, io, oldIO)
			}
		}
		got, io, err := PointBatch(c.st, c.shape, points)
		if err != nil {
			t.Fatalf("%s batch: %v", c.name, err)
		}
		old, oldIO, err := oldPointBatch(c.st, c.shape, points)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range points {
			if want := c.src.At(p...); !closeRel(got[i], want) || !closeRel(got[i], old[i]) {
				t.Fatalf("%s batch point %v = %g, dense %g, old kernel %g", c.name, p, got[i], want, old[i])
			}
		}
		if io != oldIO {
			t.Fatalf("%s batch read %d blocks, old kernel %d", c.name, io, oldIO)
		}
	}
}

// The standard kernels also serve tilings with no per-dimension structure
// (the sequential ablation baseline), one Locate per coefficient.
func TestStandardKernelsOnSequentialTiling(t *testing.T) {
	shape := []int{32, 16}
	src := dataset.Dense(shape, 14)
	st, err := tile.NewStore(storage.NewMemStore(8), tile.NewSequential(shape, 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := tile.WriteArray(st, wavelet.TransformStandard(src)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	starts, extents := boxes(rng, shape, 100)
	for i := range starts {
		s, e := starts[i], extents[i]
		got, io, err := RangeSumStandard(st, shape, s, e)
		if err != nil {
			t.Fatal(err)
		}
		old, oldIO, err := oldRangeSumStandard(st, shape, s, e)
		if err != nil {
			t.Fatal(err)
		}
		if want := src.SumRange(s, e); !closeRel(got, want) || !closeRel(got, old) || io != oldIO {
			t.Fatalf("box %v+%v = %g in %d blocks, dense %g, old kernel %g in %d", s, e, got, io, want, old, oldIO)
		}
		got, io, err = PointViaRootPath(st, shape, s)
		if err != nil {
			t.Fatal(err)
		}
		old, oldIO, err = oldPointViaRootPath(st, shape, s)
		if err != nil {
			t.Fatal(err)
		}
		if want := src.At(s...); !closeRel(got, want) || !closeRel(got, old) || io != oldIO {
			t.Fatalf("point %v = %g in %d blocks, dense %g, old kernel %g in %d", s, got, io, want, old, oldIO)
		}
	}
}

// kernelOps returns one closure per kernel on fixed inputs, for the alloc
// gate and the error-path test.
func kernelOps(std, non kernelCase) map[string]func() error {
	point, start, extent := []int{37, 9}, []int{5, 3}, []int{40, 11}
	return map[string]func() error{
		"PointViaRootPath": func() error {
			_, _, err := PointViaRootPath(std.st, std.shape, point)
			return err
		},
		"RangeSumStandard": func() error {
			_, _, err := RangeSumStandard(std.st, std.shape, start, extent)
			return err
		},
		"RangeSumNonStandard": func() error {
			_, _, err := RangeSumNonStandard(non.st, start, extent)
			return err
		},
		"PointViaRootPathNonStandard": func() error {
			_, _, err := PointViaRootPathNonStandard(non.st, point)
			return err
		},
	}
}

// Steady state, a query allocates nothing per coefficient, per tile or per
// quadtree node: what is left is the validation's domain-shape slice.
func TestKernelAllocsPerQuery(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	std, non := standardCase(t, []int{64, 16}, 2, 20), nonStandardCase(t, 6, 2, 2, 21)
	for name, op := range kernelOps(std, non) {
		if err := op(); err != nil { // sizes the arena
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(200, func() { _ = op() }); got > 4 {
			t.Errorf("%s: %.1f allocs per query, want at most 4", name, got)
		}
	}
}

// A failed fetch returns the error and puts the arena back: were it
// dropped, every failing query would build a new one and the alloc count
// would show it. The kernels answer correctly again once reads recover.
func TestKernelFetchErrorReturnsArena(t *testing.T) {
	std, non := standardCase(t, []int{64, 16}, 2, 22), nonStandardCase(t, 6, 2, 2, 23)
	ops := kernelOps(std, non)
	for name, op := range ops {
		if err := op(); err != nil {
			t.Fatal(err)
		}
		std.base.fail, non.base.fail = true, true
		if err := op(); !errors.Is(err, errFlaky) {
			t.Errorf("%s: err = %v, want the read error", name, err)
		}
		if !raceEnabled {
			if got := testing.AllocsPerRun(200, func() { _ = op() }); got > 4 {
				t.Errorf("%s: %.1f allocs per failing query: the arena is not returned to the pool", name, got)
			}
		}
		std.base.fail, non.base.fail = false, false
		if err := op(); err != nil {
			t.Errorf("%s after recovery: %v", name, err)
		}
	}
	if _, _, err := PointBatch(std.st, std.shape, [][]int{{1, 1}}); err != nil {
		t.Fatal(err)
	}
	std.base.fail = true
	if _, _, err := PointBatch(std.st, std.shape, [][]int{{1, 1}}); !errors.Is(err, errFlaky) {
		t.Errorf("PointBatch: err = %v, want the read error", err)
	}
}

// Malformed queries are refused as ErrInvalid before any arena is taken:
// a rejected query allocates only its error.
func TestKernelsRejectBeforeScratch(t *testing.T) {
	std, non := standardCase(t, []int{64, 16}, 2, 24), nonStandardCase(t, 6, 2, 2, 25)
	bad := map[string]func() error{
		"PointViaRootPath": func() error {
			_, _, err := PointViaRootPath(std.st, std.shape, []int{64, 0})
			return err
		},
		"PointBatch": func() error {
			_, _, err := PointBatch(std.st, std.shape, [][]int{{1, 1}, {0, -1}})
			return err
		},
		"RangeSumStandard": func() error {
			_, _, err := RangeSumStandard(std.st, std.shape, []int{60, 0}, []int{8, 4})
			return err
		},
		"RangeSumNonStandard": func() error {
			_, _, err := RangeSumNonStandard(non.st, []int{0, 0}, []int{0, 4})
			return err
		},
		"PointViaRootPathNonStandard": func() error {
			_, _, err := PointViaRootPathNonStandard(non.st, []int{0, 64})
			return err
		},
	}
	// A store that fails every read: reaching the fetch would change the
	// error.
	std.base.fail, non.base.fail = true, true
	for name, op := range bad {
		if err := op(); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid", name, err)
		}
	}
}

// Sixteen goroutines share the arena pool; every answer is checked against
// the dense array, so an arena recycled while still in use shows as a wrong
// sum (and as a race under -race).
func TestKernelsConcurrentSharedPool(t *testing.T) {
	std, non := standardCase(t, []int{64, 32}, 2, 26), nonStandardCase(t, 6, 2, 2, 27)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < 150; i++ {
				c := std
				if (g+i)%2 == 1 {
					c = non
				}
				s, e := make([]int, 2), make([]int, 2)
				for t, n := range c.shape {
					s[t] = rng.Intn(n)
					e[t] = 1 + rng.Intn(n-s[t])
				}
				var got, pt float64
				var err, perr error
				if c.st == std.st {
					got, _, err = RangeSumStandard(c.st, c.shape, s, e)
					pt, _, perr = PointViaRootPath(c.st, c.shape, s)
				} else {
					got, _, err = RangeSumNonStandard(c.st, s, e)
					pt, _, perr = PointViaRootPathNonStandard(c.st, s)
				}
				if err != nil || perr != nil {
					t.Errorf("goroutine %d: %v %v", g, err, perr)
					return
				}
				if want := c.src.SumRange(s, e); !closeRel(got, want) {
					t.Errorf("goroutine %d %s box %v+%v = %g, want %g", g, c.name, s, e, got, want)
					return
				}
				if want := c.src.At(s...); !closeRel(pt, want) {
					t.Errorf("goroutine %d %s point %v = %g, want %g", g, c.name, s, pt, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func randomPoints(rng *rand.Rand, shape []int, count int) [][]int {
	points := make([][]int, count)
	for i := range points {
		points[i] = make([]int, len(shape))
		for t, n := range shape {
			points[i][t] = rng.Intn(n)
		}
	}
	return points
}

func TestPointBatchNonStandardMatchesOracle(t *testing.T) {
	for _, c := range nonStandardCases(t) {
		points := randomPoints(rand.New(rand.NewSource(16)), c.shape, 40)
		got, io, err := PointBatchNonStandard(c.st, points)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		old, oldIO, err := oldPointBatchNonStandard(c.st, c.shape, points)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range points {
			if want := c.src.At(p...); !closeRel(got[i], want) || !closeRel(got[i], old[i]) {
				t.Fatalf("%s point %v = %g, dense %g, old walk %g", c.name, p, got[i], want, old[i])
			}
		}
		if io != oldIO {
			t.Fatalf("%s batch read %d blocks, old walk %d", c.name, io, oldIO)
		}
	}
}

// The batch answers every point bit-for-bit as PointStandard does, from the
// distinct leaf tiles alone.
func TestPointStandardBatchMatchesSingles(t *testing.T) {
	for _, shape := range [][]int{{128}, {64, 16}, {16, 8, 32}, {1, 8}} {
		tiling := tile.NewStandard(log2s(shape), 2)
		st, err := tile.NewStore(storage.NewMemStore(tiling.BlockSize()), tiling)
		if err != nil {
			t.Fatal(err)
		}
		oneChunk(t, st, dataset.Dense(shape, 17))
		points := randomPoints(rand.New(rand.NewSource(18)), shape, 40)
		got, io, err := PointStandardBatch(st, points)
		if err != nil {
			t.Fatal(err)
		}
		leaves := map[int]bool{}
		for i, p := range points {
			want, _, err := PointStandard(st, p)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != want {
				t.Fatalf("%v point %v = %v, single query %v", shape, p, got[i], want)
			}
			leaves[new(scratch).planLeafStandard(tiling, p)] = true
		}
		if io != len(leaves) {
			t.Fatalf("%v: batch read %d blocks, %d distinct leaf tiles", shape, io, len(leaves))
		}
	}
}

// The planned progressive walk streams exactly the steps of the per-
// coefficient walk it replaced: estimates bit for bit, coefficient and
// block counts equal.
func TestProgressiveMatchesOracle(t *testing.T) {
	for _, c := range standardCases(t) {
		starts, extents := boxes(rand.New(rand.NewSource(19)), c.shape, 30)
		for i := range starts {
			got, err := ProgressiveRangeSum(c.st, c.shape, starts[i], extents[i])
			if err != nil {
				t.Fatal(err)
			}
			want, err := oldProgressiveRangeSum(c.st, c.shape, starts[i], extents[i])
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s box %v+%v: %d steps, oracle %d", c.name, starts[i], extents[i], len(got), len(want))
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("%s box %v+%v step %d = %+v, oracle %+v", c.name, starts[i], extents[i], k, got[k], want[k])
				}
			}
		}
	}
}

// leafCases are materialized stores of both forms, d = 1 to 3, b dividing
// n and not, and a one-cell extent: the geometries the leaf kernels index.
func leafCases(t testing.TB) []*tile.Store {
	var out []*tile.Store
	for _, g := range []struct {
		shape []int
		b     int
	}{{[]int{128}, 3}, {[]int{64, 16}, 2}, {[]int{16, 8, 32}, 2}, {[]int{1, 8}, 2}, {[]int{32, 128}, 3}} {
		tiling := tile.NewStandard(log2s(g.shape), g.b)
		st, err := tile.NewStore(storage.NewMemStore(tiling.BlockSize()), tiling)
		if err != nil {
			t.Fatal(err)
		}
		oneChunk(t, st, dataset.Dense(g.shape, 30))
		out = append(out, st)
	}
	for _, g := range []struct{ n, d, b int }{{7, 1, 3}, {6, 2, 2}, {5, 2, 3}, {4, 3, 1}, {0, 2, 2}} {
		tiling := tile.NewNonStandard(g.n, g.d, g.b)
		st, err := tile.NewStore(storage.NewMemStore(tiling.BlockSize()), tiling)
		if err != nil {
			t.Fatal(err)
		}
		oneChunk(t, st, dataset.Dense(tiling.Domain(), 31))
		out = append(out, st)
	}
	return out
}

// The leaf kernels on the pooled arena answer bit for bit as the kernels
// they replaced, read exactly one block per point, and a batch reads each
// point's leaf once: at most one block per point.
func TestLeafPointsMatchOldKernels(t *testing.T) {
	for _, st := range leafCases(t) {
		shape, _ := domainShape(st)
		points := randomPoints(rand.New(rand.NewSource(32)), shape, 60)
		single, batch, old := PointStandard, PointStandardBatch, oldPointStandard
		if _, ok := st.Tiling().(*tile.NonStandard); ok {
			single, batch, old = PointNonStandard, PointNonStandardBatch, oldPointNonStandard
		}
		got, io, err := batch(st, points)
		if err != nil {
			t.Fatal(err)
		}
		leaves := map[int]bool{}
		for i, p := range points {
			want, err := old(st, p)
			if err != nil {
				t.Fatal(err)
			}
			v, n, err := single(st, p)
			if err != nil {
				t.Fatal(err)
			}
			if v != want || got[i] != want || n != 1 {
				t.Fatalf("%T%v point %v = %v (batch %v, %d blocks), old kernel %v", st.Tiling(), shape, p, v, got[i], n, want)
			}
			switch tiling := st.Tiling().(type) {
			case *tile.Standard:
				leaves[new(scratch).planLeafStandard(tiling, p)] = true
			case *tile.NonStandard:
				// The leaf tile holds the level-1 node over the point.
				n, coords := bitutil.Log2(shape[0]), make([]int, len(p))
				for t, x := range p {
					if n > 0 {
						coords[t] = x>>1 + 1<<uint(n-1)
					}
				}
				block, _ := tiling.Locate(coords)
				leaves[block] = true
			}
		}
		if io != len(leaves) {
			t.Fatalf("%T%v: batch read %d blocks, %d distinct leaf tiles", st.Tiling(), shape, io, len(leaves))
		}
	}
}

// TestPointAllocBudget is the zero-allocation gate of the single-block
// point kernels (run by make bench-smoke): steady state, a point allocates
// nothing and a batch only its result slice.
func TestPointAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	for _, st := range leafCases(t) {
		shape, _ := domainShape(st)
		points := randomPoints(rand.New(rand.NewSource(33)), shape, 8)
		single, batch := PointStandard, PointStandardBatch
		if _, ok := st.Tiling().(*tile.NonStandard); ok {
			single, batch = PointNonStandard, PointNonStandardBatch
		}
		if _, _, err := batch(st, points); err != nil { // sizes the arena
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(200, func() { _, _, _ = single(st, points[0]) }); got != 0 {
			t.Errorf("%T%v: %.2f allocs per point, want 0", st.Tiling(), shape, got)
		}
		if got := testing.AllocsPerRun(200, func() { _, _, _ = batch(st, points) }); got > 1 {
			t.Errorf("%T%v: %.2f allocs per batch, want only its result", st.Tiling(), shape, got)
		}
	}
}
