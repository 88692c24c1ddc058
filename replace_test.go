package shiftsplit

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/dyadic"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
)

// wholeDomainStack opens an empty store of one stack for a whole-domain
// write; cleanup closes it.
type wholeDomainStack struct {
	name string
	open func(t *testing.T, form Form, shape []int) *Store
}

func wholeDomainStacks() []wholeDomainStack {
	closing := func(t *testing.T, st *Store, err error) *Store {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if err := st.Close(); err != nil {
				t.Error(err)
			}
		})
		return st
	}
	mem := func(durable, versioned bool) func(*testing.T, Form, []int) *Store {
		return func(t *testing.T, form Form, shape []int) *Store {
			st, err := CreateStore(StoreOptions{Shape: shape, Form: form, Durable: durable, Versioned: versioned})
			return closing(t, st, err)
		}
	}
	serving := func(t *testing.T, form Form, shape []int) *Store {
		path := filepath.Join(t.TempDir(), "s.wav")
		st, err := CreateStore(StoreOptions{Shape: shape, Form: form, Path: path, Durable: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st, err = OpenServingOpts(path, ServeOptions{CacheBlocks: 8})
		return closing(t, st, err)
	}
	return []wholeDomainStack{
		{"mem/plain", mem(false, false)},
		{"mem/durable", mem(true, false)},
		{"mem/versioned", mem(false, true)},
		{"mem/durable+versioned", mem(true, true)},
		{"file/durable/serve-cache", serving},
	}
}

// sameStore checks that st holds what ref holds: every block's frame,
// scaling slots included, the transform, every point and a set of range
// sums.
func sameStore(t *testing.T, st, ref *Store) {
	t.Helper()
	for id := 0; id < ref.NumBlocks(); id++ {
		got, err := st.store.ReadTile(id)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.store.ReadTile(id)
		if err != nil {
			t.Fatal(err)
		}
		for slot := range want {
			if !closeTo(got[slot], want[slot]) {
				t.Fatalf("block %d slot %d = %v, want %v", id, slot, got[slot], want[slot])
			}
		}
	}
	got, err := st.ReadTransform()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.ReadTransform()
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want.Data() {
		if !closeTo(got.Data()[i], w) {
			t.Fatalf("transform[%d] = %v, want %v", i, got.Data()[i], w)
		}
	}
	shape := ref.Shape()
	NewArray(shape...).Each(func(p []int, _ float64) {
		g, _, err := st.Point(p...)
		if err != nil {
			t.Fatal(err)
		}
		w, _, err := ref.Point(p...)
		if err != nil {
			t.Fatal(err)
		}
		if !closeTo(g, w) {
			t.Fatalf("point %v = %v, want %v", p, g, w)
		}
	})
	boxes := [][2][]int{{{0, 0}, shape}, {{8, 8}, {1, 1}}, {{9, 9}, {1, 1}}, {{3, 5}, {7, 9}}, {{4, 0}, {12, 3}}}
	for _, b := range boxes {
		g, _, err := st.RangeSum(b[0], b[1])
		if err != nil {
			t.Fatal(err)
		}
		w, _, err := ref.RangeSum(b[0], b[1])
		if err != nil {
			t.Fatal(err)
		}
		if !closeTo(g, w) {
			t.Fatalf("range sum %v+%v = %v, want %v", b[0], b[1], g, w)
		}
	}
}

// cornerArray is zero but for a 4x4 corner of random values, so a chunked
// transform of it skips every chunk off the corner.
func cornerArray(rng *rand.Rand, edge int) *Array {
	a := NewArray(edge, edge)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			a.Set(rng.NormFloat64()*10, i, j)
		}
	}
	a.Set(100, 0, 0)
	return a
}

// TestTransformChunkedReplacesTheStore: a chunked transform into a store
// that holds another transform leaves exactly what Materialize leaves, on
// every stack, at every chunk size.
func TestTransformChunkedReplacesTheStore(t *testing.T) {
	const edge = 16
	rng := rand.New(rand.NewSource(57))
	x, y := randArray(rng, edge, edge), cornerArray(rng, edge)
	shape := []int{edge, edge}
	for _, form := range []Form{Standard, NonStandard} {
		ref, err := CreateStore(StoreOptions{Shape: shape, Form: form})
		if err != nil {
			t.Fatal(err)
		}
		defer ref.Close()
		if err := ref.Materialize(y); err != nil {
			t.Fatal(err)
		}
		for _, stack := range wholeDomainStacks() {
			for _, m := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%v/%s/m=%d", form, stack.name, m), func(t *testing.T) {
					st := stack.open(t, form, shape)
					if err := st.Materialize(x); err != nil {
						t.Fatal(err)
					}
					if err := st.TransformChunked(y, m); err != nil {
						t.Fatal(err)
					}
					sameStore(t, st, ref)
				})
			}
		}
	}
}

// ioTrace records, below the store, how many blocks a write reads and
// writes and which blocks it stores.
type ioTrace struct {
	storage.BlockStore
	written       map[int]bool
	reads, writes int
}

func (r *ioTrace) reset() { r.written, r.reads, r.writes = map[int]bool{}, 0, 0 }

func (r *ioTrace) ReadBlock(id int, buf []float64) error {
	r.reads++
	return r.BlockStore.ReadBlock(id, buf)
}

func (r *ioTrace) ReadBlocks(ids []int, bufs [][]float64) error {
	r.reads += len(ids)
	return storage.ReadBlocksOf(r.BlockStore, ids, bufs)
}

func (r *ioTrace) WriteBlock(id int, data []float64) error {
	r.written[id] = true
	r.writes++
	return r.BlockStore.WriteBlock(id, data)
}

func (r *ioTrace) WriteBlocks(ids []int, data [][]float64) error {
	for _, id := range ids {
		r.written[id] = true
	}
	r.writes += len(ids)
	return storage.WriteBlocksOf(r.BlockStore, ids, data)
}

// TestWholeDomainWriteIO gates a whole-domain write into a store that is
// not fresh by counts: it writes every block exactly once and reads none,
// on both forms, dense, sparse and all-zero, at every chunk size.
func TestWholeDomainWriteIO(t *testing.T) {
	const edge = 16
	rng := rand.New(rand.NewSource(58))
	x := randArray(rng, edge, edge)
	sources := map[string]*Array{"dense": randArray(rng, edge, edge), "corner": cornerArray(rng, edge), "zero": NewArray(edge, edge)}
	for _, form := range []Form{Standard, NonStandard} {
		for name, y := range sources {
			for _, m := range []int{-1, 1, 2, 4} {
				t.Run(fmt.Sprintf("%v/%s/m=%d", form, name, m), func(t *testing.T) {
					trace := &ioTrace{}
					trace.reset()
					st, err := CreateStore(StoreOptions{Shape: []int{edge, edge}, Form: form, BaseWrap: func(bs storage.BlockStore) storage.BlockStore {
						trace.BlockStore = bs
						return trace
					}})
					if err != nil {
						t.Fatal(err)
					}
					defer st.Close()
					if err := st.Materialize(x); err != nil {
						t.Fatal(err)
					}
					trace.reset()
					if m < 0 {
						err = st.Materialize(y)
					} else {
						err = st.TransformChunked(y, m)
					}
					if err != nil {
						t.Fatal(err)
					}
					if n := st.NumBlocks(); len(trace.written) != n || trace.writes != n || trace.reads != 0 {
						t.Fatalf("wrote %d of %d blocks in %d writes and read %d", len(trace.written), n, trace.writes, trace.reads)
					}
				})
			}
		}
	}
}

// TestSparseTransformIntoFreshStore pins the paper's sparse-data saving
// (§5.1): a chunked transform into a plain file store CreateStore just made
// writes only the blocks the non-zero chunks reach and reads none, while the
// same transform through a reopened handle writes every block. A fresh durable,
// versioned store allocates physical blocks only for what the chunks reach,
// none for zero frames, and table pages only for pages that map a block:
// two superblock slots, the written blocks (16 and 6) and the table pages
// holding their entries (5 and 3 of 32 entries each) make 23 and 11.
func TestSparseTransformIntoFreshStore(t *testing.T) {
	const edge, chunkBits = 64, 3
	src := NewArray(edge, edge)
	rng := rand.New(rand.NewSource(59))
	for i := 8; i < 16; i++ {
		for j := 16; j < 24; j++ {
			src.Set(rng.NormFloat64()*10, i, j)
		}
	}
	for _, c := range []struct {
		form          Form
		fresh, reopen int64
		phys          int
	}{{Standard, 16, 441, 23}, {NonStandard, 6, 273, 11}} {
		t.Run(c.form.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "sparse.wav")
			st, err := CreateStore(StoreOptions{Shape: []int{edge, edge}, Form: c.form, TileBits: 2, Path: path})
			if err != nil {
				t.Fatal(err)
			}
			check := func(st *Store, writes int64) {
				t.Helper()
				if err := st.TransformChunked(src, chunkBits); err != nil {
					t.Fatal(err)
				}
				if io := st.Stats(); io.Reads != 0 || io.Writes != writes {
					t.Fatalf("io = %+v, want 0 reads and %d writes", io, writes)
				}
				got, err := st.ReadTransform()
				if err != nil {
					t.Fatal(err)
				}
				if !got.EqualApprox(Transform(src, c.form), 1e-9) {
					t.Fatal("store does not hold the transform")
				}
			}
			check(st, c.fresh)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if st, err = OpenStore(path); err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			check(st, c.reopen)

			vst, err := CreateStore(StoreOptions{Shape: []int{edge, edge}, Form: c.form, TileBits: 2, Path: filepath.Join(t.TempDir(), "v.wav"), Durable: true, Versioned: true})
			if err != nil {
				t.Fatal(err)
			}
			defer vst.Close()
			if err := vst.TransformChunked(src, chunkBits); err != nil {
				t.Fatal(err)
			}
			if es, _ := vst.EpochStats(); es.PhysBlocks != c.phys {
				t.Fatalf("versioned store holds %d physical blocks, want %d", es.PhysBlocks, c.phys)
			}
		})
	}
}

// TestMaterializeIsTheWholeDomainMerge holds Materialize, into a fresh
// store and into one that holds another transform, to the merge of the
// whole-domain block through the kernels and the slot step: every slot of
// every block equal, at no read, one write per block and one commit. The
// geometries are internal/tile's TestScalingSlotsFollowMerges', which holds
// that merge to the layout derived from the definitions.
func TestMaterializeIsTheWholeDomainMerge(t *testing.T) {
	geoms := []struct {
		form   Form
		levels []int
		b      int
	}{
		{Standard, []int{5}, 2}, {Standard, []int{4, 3}, 2}, {Standard, []int{4, 4}, 3},
		{Standard, []int{5, 5}, 2}, {Standard, []int{3, 5}, 2}, {Standard, []int{5, 5}, 3},
		{Standard, []int{2, 3, 4}, 1}, {Standard, []int{3, 3, 3}, 2},
		{NonStandard, []int{5}, 2}, {NonStandard, []int{4, 4}, 3}, {NonStandard, []int{5, 5}, 2},
		{NonStandard, []int{3, 3, 3}, 2}, {NonStandard, []int{4, 4, 4}, 1},
	}
	for gi, g := range geoms {
		shape := make([]int, len(g.levels))
		whole := make(dyadic.Range, len(g.levels))
		for i, n := range g.levels {
			shape[i], whole[i].Level = 1<<uint(n), n
		}
		rng := rand.New(rand.NewSource(int64(60 + gi)))
		a := randArray(rng, shape...)
		for _, prior := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v%v/b=%d/prior=%v", g.form, shape, g.b, prior), func(t *testing.T) {
				st, err := CreateStore(StoreOptions{Shape: shape, Form: g.form, TileBits: g.b})
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				if prior {
					if err := st.Materialize(randArray(rng, shape...)); err != nil {
						t.Fatal(err)
					}
				}
				st.ResetStats()
				if err := st.Materialize(a); err != nil {
					t.Fatal(err)
				}
				if io := st.Stats(); io.Reads != 0 || io.Writes != int64(st.NumBlocks()) || io.Commits != 1 {
					t.Fatalf("io = %+v, want 0 reads, %d writes and 1 commit", io, st.NumBlocks())
				}
				set := tile.NewBucketSet(st.BlockSize())
				hat := Transform(a, g.form)
				if g.form == Standard {
					tile.AccumulateEmbedStandard(st.tiling, shape, whole, hat, set)
				} else {
					pos := make([]int, len(shape))
					tile.AccumulateShiftNonStandard(st.tiling, shape, g.levels[0], pos, hat, set)
					tile.AccumulateSplitNonStandard(st.tiling, shape, g.levels[0], pos, hat.Data()[0], set)
				}
				tile.AccumulateScalingSlots(st.tiling, set)
				want := make([][]float64, st.NumBlocks())
				for _, b := range set.Buckets() {
					want[b.Block] = b.Deltas
				}
				for id := range want {
					got, err := st.store.ReadTile(id)
					if err != nil {
						t.Fatal(err)
					}
					for slot, v := range got {
						w := 0.0
						if want[id] != nil {
							w = want[id][slot]
						}
						if v != w {
							t.Fatalf("block %d slot %d = %v, the merge has %v", id, slot, v, w)
						}
					}
				}
			})
		}
	}
}

// TestTransformChunkedIOOnBenchStore gates the whole-domain write of the
// benchmark harness's store by counts: a fresh durable, versioned 1024²
// store at TileBits 4, chunk bits 5 and 6, both forms. Neither form reads a
// block (the 2 reads are CreateStore's, before the write), and each writes
// every block once, plus the remap table's pages (512 entries each) and
// the first flip's 3 superblock-slot writes (epoch 0's slot, epoch 1's,
// and slot 0's retirement): 4 761 + 10 + 3 standard, 4 113 + 9 + 3
// non-standard.
func TestTransformChunkedIOOnBenchStore(t *testing.T) {
	src := dataset.Dense([]int{1024, 1024}, 1)
	for _, c := range []struct {
		form   Form
		blocks int64
	}{{Standard, 4761}, {NonStandard, 4113}} {
		for _, chunkBits := range []int{5, 6} {
			t.Run(fmt.Sprintf("%v/chunkBits=%d", c.form, chunkBits), func(t *testing.T) {
				st, err := CreateStore(StoreOptions{Shape: []int{1024, 1024}, Form: c.form, TileBits: 4,
					Path: filepath.Join(t.TempDir(), "cube.wav"), Durable: true, Versioned: true})
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				if int64(st.NumBlocks()) != c.blocks {
					t.Fatalf("%d blocks, want %d", st.NumBlocks(), c.blocks)
				}
				if err := st.TransformChunked(src, chunkBits); err != nil {
					t.Fatal(err)
				}
				pages := (c.blocks + 511) / 512
				if io := st.Stats(); io.Reads != 2 || io.Writes != c.blocks+pages+3 {
					t.Errorf("io = %d reads and %d writes, want 2 and %d (%d blocks, %d table pages, 3 slot writes)",
						io.Reads, io.Writes, c.blocks+pages+3, c.blocks, pages)
				}
			})
		}
	}
}
