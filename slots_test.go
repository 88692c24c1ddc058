package shiftsplit

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/parallel"
	"github.com/shiftsplit/shiftsplit/internal/query"
	"github.com/shiftsplit/shiftsplit/internal/tile"
	"github.com/shiftsplit/shiftsplit/internal/transform"
)

// slotGeometries are the stores the slot tests maintain: d = 1 to 3, tile
// bits that do not divide the levels (a shallower top band), and
// non-square standard shapes.
var slotGeometries = []struct {
	form     Form
	shape    []int
	tileBits int
}{
	{Standard, []int{32}, 2},
	{Standard, []int{16, 8}, 2},
	{Standard, []int{8, 32}, 2},
	{Standard, []int{16, 16}, 3},
	{Standard, []int{8, 4, 16}, 2},
	{NonStandard, []int{32}, 2},
	{NonStandard, []int{16, 16}, 3},
	{NonStandard, []int{32, 32}, 2},
	{NonStandard, []int{8, 8, 8}, 2},
}

// checkSlots holds every block of st to the materialized layout of the
// transform st holds, within 1e-12 of the layout's largest magnitude, and
// every cell's Point to one block and to the root-path kernel's answer
// within 1e-12 relative.
func checkSlots(t *testing.T, st *Store) {
	t.Helper()
	hat, err := st.ReadTransform()
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]float64, st.NumBlocks())
	switch tiling := st.tiling.(type) {
	case *tile.Standard:
		fill, _, err := tile.StandardBlockFiller(tiling, hat)
		if err != nil {
			t.Fatal(err)
		}
		for id := range want {
			want[id] = make([]float64, st.BlockSize())
			fill(id, want[id])
		}
	case *tile.NonStandard:
		blocks, scaling, err := tile.NonStandardBlocks(tiling, hat)
		if err != nil {
			t.Fatal(err)
		}
		for id := range want {
			if id > 0 {
				blocks[id][0] = scaling(id)
			}
			want[id] = blocks[id]
		}
	}
	scale := 1.0
	for _, b := range want {
		for _, v := range b {
			scale = math.Max(scale, math.Abs(v))
		}
	}
	for id := range want {
		got, err := st.store.ReadTile(id)
		if err != nil {
			t.Fatal(err)
		}
		for slot, w := range want[id] {
			if math.Abs(got[slot]-w) > 1e-12*scale {
				t.Fatalf("block %d slot %d = %v, the materialized layout has %v", id, slot, got[slot], w)
			}
		}
	}
	point := make([]int, len(st.opts.Shape))
	err = st.WithSnapshot(func(sn *Snapshot) error {
		for cell := 0; cell < volume(st.opts.Shape); cell++ {
			for i, rest := len(point)-1, cell; i >= 0; i-- {
				point[i], rest = rest%st.opts.Shape[i], rest/st.opts.Shape[i]
			}
			got, blocks, err := sn.Point(point...)
			if err != nil {
				return err
			}
			var root float64
			if st.opts.Form == Standard {
				root, _, err = query.PointViaRootPath(sn.ts, st.opts.Shape, point)
			} else {
				root, _, err = query.PointViaRootPathNonStandard(sn.ts, point)
			}
			if err != nil {
				return err
			}
			if blocks != 1 || math.Abs(got-root) > 1e-12*math.Max(1, math.Abs(root)) {
				return fmt.Errorf("cell %v = %v in %d blocks, the root path gives %v", point, got, blocks, root)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScalingSlotsSurviveMaintenance runs seeded sequences of maintenance —
// a chunked transform (each engine of its form), then merges, clears,
// scales and store additions in random order — and after every step holds
// the whole store to the layout Materialize writes for the same transform,
// and every point to one block.
func TestScalingSlotsSurviveMaintenance(t *testing.T) {
	for gi, g := range slotGeometries {
		engines := []string{"chunked"}
		if g.form == NonStandard {
			engines = append(engines, "row-major")
		}
		for _, engine := range engines {
			t.Run(fmt.Sprintf("%v%v/b=%d/%s", g.form, g.shape, g.tileBits, engine), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(90 + gi)))
				create := func() *Store {
					st, err := CreateStore(StoreOptions{Shape: g.shape, Form: g.form, TileBits: g.tileBits})
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { st.Close() })
					return st
				}
				minLevels := 64
				for _, e := range g.shape {
					minLevels = min(minLevels, bitLen(e)-1)
				}
				transformInto := func(st *Store) {
					src, chunkBits := randArray(rng, g.shape...), 1+rng.Intn(minLevels)
					var err error
					if engine == "row-major" {
						_, err = transform.ChunkedNonStandardOpts(src, chunkBits, st.store, transform.NonStdOptions{}, parallel.Options{Workers: 1})
					} else {
						err = st.TransformChunked(src, chunkBits)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				randBlock := func() Block {
					b := Block{Levels: make([]int, len(g.shape)), Pos: make([]int, len(g.shape))}
					level := rng.Intn(minLevels + 1)
					for i, e := range g.shape {
						b.Levels[i] = level
						if g.form == Standard {
							b.Levels[i] = rng.Intn(bitLen(e))
						}
						b.Pos[i] = rng.Intn(e >> uint(b.Levels[i]))
					}
					return b
				}
				st := create()
				transformInto(st)
				checkSlots(t, st)
				for step := 0; step < 8; step++ {
					var err error
					switch op := rng.Intn(4); op {
					case 0:
						b := randBlock()
						err = st.MergeBlock(b, Transform(randArray(rng, b.Shape()...), g.form))
					case 1:
						err = st.ClearBlock(randBlock())
					case 2:
						err = st.Scale(0.5 + rng.Float64())
					case 3:
						other := create()
						transformInto(other)
						err = st.AddStore(other)
					}
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					checkSlots(t, st)
				}
			})
		}
	}
}

// TestServedPointsReadOneBlock is the count gate: a store built by the
// chunked transform and maintained by merges, reopened for serving, answers
// every point from exactly one block on both forms.
func TestServedPointsReadOneBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for _, form := range []Form{Standard, NonStandard} {
		path := filepath.Join(t.TempDir(), "cube.wav")
		st, err := CreateStore(StoreOptions{Shape: []int{64, 64}, Form: form, TileBits: 2, Path: path, Durable: true, Versioned: true})
		if err != nil {
			t.Fatal(err)
		}
		src := randArray(rng, 64, 64)
		if err := st.TransformChunked(src, 3); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			b := CubeBlock(i%4, rng.Intn(64>>uint(i%4)), rng.Intn(64>>uint(i%4)))
			delta := randArray(rng, b.Shape()...)
			if err := st.MergeBlock(b, Transform(delta, form)); err != nil {
				t.Fatal(err)
			}
			src.SubAdd(delta, b.Start())
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		served, err := OpenServingOpts(path, ServeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			p := []int{rng.Intn(64), rng.Intn(64)}
			served.ResetStats()
			v, blocks, err := served.Point(p...)
			if err != nil {
				t.Fatal(err)
			}
			if reads := served.Stats().Reads; blocks != 1 || reads != 1 {
				t.Fatalf("%v point %v read %d blocks (the device served %d), want 1", form, p, blocks, reads)
			}
			if math.Abs(v-src.At(p...)) > 1e-9 {
				t.Fatalf("%v point %v = %v, want %v", form, p, v, src.At(p...))
			}
		}
		points := [][]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {17, 40}, {63, 63}}
		served.ResetStats()
		if _, blocks, err := served.Points(points); err != nil || blocks != 3 {
			t.Fatalf("%v batch of %d points over 3 leaf tiles read %d blocks (%v)", form, len(points), blocks, err)
		}
		if err := served.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
