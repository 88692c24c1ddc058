package shiftsplit

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/query"
	"github.com/shiftsplit/shiftsplit/internal/storage"
)

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

// oracleTransform reads the whole transform coefficient by coefficient
// through a block cache keyed by id — the reader every consumer below used
// before it was planned.
func oracleTransform(t *testing.T, st *Store) *Array {
	t.Helper()
	cache := make(map[int][]float64)
	hat := NewArray(st.opts.Shape...)
	hat.Each(func(coords []int, _ float64) {
		block, slot := st.tiling.Locate(coords)
		data, ok := cache[block]
		if !ok {
			var err error
			if data, err = st.store.ReadTile(block); err != nil {
				t.Fatal(err)
			}
			cache[block] = data
		}
		hat.Set(data[slot], coords...)
	})
	return hat
}

func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= 1e-12*math.Max(1, math.Abs(want))
}

func arraysClose(got, want *Array) bool {
	if got.Size() != want.Size() {
		return false
	}
	for i, w := range want.Data() {
		if !closeTo(got.Data()[i], w) {
			return false
		}
	}
	return true
}

// Every consumer of coefficients plans its reads, fetches them with one
// vectored read and reports exactly the blocks the device served, on both
// forms, materialized or not, in one to three dimensions and on non-square
// standard shapes; its answers match the per-coefficient reader's.
func TestReadConsumersCountWhatTheyRead(t *testing.T) {
	for _, g := range []struct {
		form  Form
		shape []int
	}{
		{Standard, []int{64}},
		{Standard, []int{32, 16}},
		{Standard, []int{8, 64}},
		{Standard, []int{8, 4, 16}},
		{NonStandard, []int{64}},
		{NonStandard, []int{16, 16}},
		{NonStandard, []int{8, 8, 8}},
	} {
		for _, materialized := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v%v/mat=%v", g.form, g.shape, materialized), func(t *testing.T) {
				log := &readLog{}
				st, err := CreateStore(StoreOptions{
					Shape: g.shape, Form: g.form, TileBits: 2,
					BaseWrap: func(bs storage.BlockStore) storage.BlockStore { log.BlockStore = bs; return log },
				})
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				rng := rand.New(rand.NewSource(70))
				src := randArray(rng, g.shape...)
				if materialized {
					err = st.Materialize(src)
				} else {
					err = st.TransformChunked(src, 1)
				}
				if err != nil {
					t.Fatal(err)
				}
				hat := oracleTransform(t, st)
				data := Inverse(hat, g.form)
				// check runs one consumer and holds its count to the device.
				check := func(name string, op func() (int, error)) {
					t.Helper()
					st.ResetStats()
					log.batches, log.singles = 0, 0
					blocks, err := op()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if log.batches != 1 || log.singles != 0 {
						t.Fatalf("%s: %d vectored and %d single reads, want one vectored read", name, log.batches, log.singles)
					}
					if reads := st.Stats().Reads; int64(blocks) != reads {
						t.Fatalf("%s: reported %d blocks, the device served %d", name, blocks, reads)
					}
				}
				d := len(g.shape)
				randBox := func() (start, extent []int) {
					start, extent = make([]int, d), make([]int, d)
					for i, e := range g.shape {
						start[i] = rng.Intn(e)
						extent[i] = 1 + rng.Intn(e-start[i])
					}
					return start, extent
				}
				check("ReadTransform", func() (int, error) {
					got, err := st.ReadTransform()
					if err == nil && !got.EqualApprox(hat, 0) {
						t.Fatal("ReadTransform differs from the reader")
					}
					return st.NumBlocks(), err
				})
				for trial := 0; trial < 8; trial++ {
					start, extent := randBox()
					check("ExtractBox", func() (int, error) {
						got, blocks, err := st.ExtractBox(start, extent)
						if err == nil && !arraysClose(got, data.SubCopy(start, extent)) {
							t.Fatalf("ExtractBox %v+%v differs from the reader by %g", start, extent, got.MaxAbsDiff(data.SubCopy(start, extent)))
						}
						return blocks, err
					})
					levels, pos := make([]int, d), make([]int, d)
					level := rng.Intn(bitLen(g.shape[0]))
					for i, e := range g.shape {
						levels[i] = level
						if g.form == Standard {
							levels[i] = rng.Intn(bitLen(e))
						}
						pos[i] = rng.Intn(e >> uint(levels[i]))
					}
					b := Block{Levels: levels, Pos: pos}
					check("ExtractBlock", func() (int, error) {
						got, blocks, err := st.ExtractBlock(b)
						if err == nil && !arraysClose(got, data.SubCopy(b.Start(), b.Shape())) {
							t.Fatalf("ExtractBlock %v differs from the reader", b)
						}
						return blocks, err
					})
					if g.form == Standard {
						check("ProgressiveRangeSum", func() (int, error) {
							steps, err := st.ProgressiveRangeSum(start, extent)
							if err != nil {
								return 0, err
							}
							last := steps[len(steps)-1]
							if !closeTo(last.Estimate, data.SumRange(start, extent)) {
								t.Fatalf("ProgressiveRangeSum %v+%v = %v, the reader %v", start, extent, last.Estimate, data.SumRange(start, extent))
							}
							return last.Blocks, nil
						})
					}
				}
				points := make([][]int, 24)
				for i := range points {
					points[i], _ = randBox()
				}
				points = append(points, points[3]) // a repeat reads nothing more
				check("Points", func() (int, error) {
					batch := st.Points
					if !materialized {
						batch = rootPathPoints(st)
					}
					vals, blocks, err := batch(points)
					for i, p := range points {
						if err == nil && !closeTo(vals[i], data.At(p...)) {
							t.Fatalf("Points %v = %v, the reader %v", p, vals[i], data.At(p...))
						}
					}
					return blocks, err
				})
				if g.form == Standard && d >= 2 {
					for dim := 0; dim < d; dim++ {
						check("RollupFromStore", func() (int, error) {
							got, blocks, err := st.RollupFromStore(dim)
							if err != nil {
								return 0, err
							}
							want, _ := Rollup(hat, dim)
							if !arraysClose(got, want) {
								t.Fatalf("RollupFromStore(%d) differs from the reader", dim)
							}
							return blocks, nil
						})
					}
				}
			})
		}
	}
}

// rootPathPoints returns a batch point query on the root path, the one a
// store whose scaling slots are stale takes.
func rootPathPoints(st *Store) func([][]int) ([]float64, int, error) {
	return func(points [][]int) ([]float64, int, error) {
		snap := st.AcquireSnapshot()
		defer snap.Release()
		if st.opts.Form == Standard {
			return query.PointBatch(snap.ts, st.opts.Shape, points)
		}
		return query.PointBatchNonStandard(snap.ts, points)
	}
}

// bitLen returns log2(e)+1 for a power of two e: the number of dyadic
// levels 0..log2(e).
func bitLen(e int) int {
	n := 0
	for 1<<uint(n) < e {
		n++
	}
	return n + 1
}

// A materialized standard store answers a batch from its points' leaf
// tiles, fetched once: the count it returns is what the device served, two
// tiles here for six points.
func TestPointsMaterializedCountsItsReads(t *testing.T) {
	st, err := CreateStore(StoreOptions{Shape: []int{64, 64}, Form: Standard, TileBits: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	src := randArray(rand.New(rand.NewSource(71)), 64, 64)
	if err := st.Materialize(src); err != nil {
		t.Fatal(err)
	}
	points := [][]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {5, 7}, {5, 7}}
	st.ResetStats()
	vals, blocks, err := st.Points(points)
	if err != nil {
		t.Fatal(err)
	}
	if reads := st.Stats().Reads; int64(blocks) != reads || blocks != 2 {
		t.Fatalf("reported %d blocks, the device served %d; want 2", blocks, reads)
	}
	for i, p := range points {
		if math.Abs(vals[i]-src.At(p...)) > 1e-9 {
			t.Fatalf("point %v = %v, want %v", p, vals[i], src.At(p...))
		}
	}
}
