// Benchmarks regenerating every table and figure of the paper's evaluation
// (§6) plus microbenchmarks of the core operations and the DESIGN.md
// ablations. The experiment benches report the measured I/O as custom
// metrics (blocks/op or coefs/op) alongside wall-clock time; the *shape* of
// those metrics across benchmarks is what reproduces the paper.
package shiftsplit

import (
	"math/rand"
	"path/filepath"
	"strconv"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/experiments"
	"github.com/shiftsplit/shiftsplit/internal/haar"
	"github.com/shiftsplit/shiftsplit/internal/query"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/stream"
	"github.com/shiftsplit/shiftsplit/internal/tile"
	"github.com/shiftsplit/shiftsplit/internal/transform"
	"github.com/shiftsplit/shiftsplit/internal/wavelet"
)

// --- experiment benches: one per paper table/figure -------------------------

func BenchmarkTable1ShiftSplitTiles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(experiments.DefaultTable1()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Complexities(b *testing.B) {
	cfg := experiments.Table2Config{LogN: 6, Dims: 2, ChunkBits: 3, TileBits: 2, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11MemorySweep(b *testing.B) {
	cfg := experiments.Fig11Config{LogN: 3, Dims: 4, ChunkBits: []int{1, 2, 3}, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12TileSweep(b *testing.B) {
	cfg := experiments.Fig12Config{LogNs: []int{5, 6}, ChunkBits: 3, TileBits: []int{2, 3}, Seed: 2}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13Appending(b *testing.B) {
	cfg := experiments.Fig13Config{Lat: 8, Lon: 8, DaysMonth: 32, Months: 8, TileBits: []int{1, 2}, Seed: 3}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig13(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14StreamBufferSweep(b *testing.B) {
	cfg := experiments.Fig14Config{LogN: 14, K: 64, BufBits: []int{1, 3, 5, 7}, Seed: 4}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig14(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamMemoryR4R5(b *testing.B) {
	cfg := experiments.DefaultStreamMemory()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.StreamMemory(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendFormsComparison(b *testing.B) {
	cfg := experiments.AppendFormsConfig{Edge: 8, Periods: 8, TileBits: 2, Seed: 13}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AppendForms(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkR6PartialReconstruction(b *testing.B) {
	cfg := experiments.R6Config{LogN: 6, TileBits: 2, Levels: []int{1, 3, 5}, Seed: 5}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.R6(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- core-operation microbenchmarks ------------------------------------------

func BenchmarkHaarTransform(b *testing.B) {
	for _, n := range []int{10, 14} {
		b.Run("N=2^"+strconv.Itoa(n), func(b *testing.B) {
			v := dataset.RandomWalk(1<<uint(n), 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				haar.Transform(v)
			}
		})
	}
}

func BenchmarkTransform2D(b *testing.B) {
	src := dataset.Dense([]int{128, 128}, 1)
	b.Run("standard", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			wavelet.TransformStandard(src)
		}
	})
	b.Run("non-standard", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			wavelet.TransformNonStandard(src)
		}
	})
}

func BenchmarkMergeBlock(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	aHat := NewArray(256, 256)
	blockData := randArray(rng, 16, 16)
	bHat := Transform(blockData, Standard)
	blk := CubeBlock(4, 3, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Merge(aHat, Standard, blk, bHat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreMergeBlock merges 16x16 chunks into a versioned in-memory
// 1024² store at TileBits 4 in each form, the maintain workload's
// geometry: the SHIFT-SPLIT kernels, the slot step, the vectored apply and
// one epoch flip per merge. It reports ns/op and allocs/op.
func BenchmarkStoreMergeBlock(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	blocks := make([]Block, 64)
	for i := range blocks {
		blocks[i] = CubeBlock(4, rng.Intn(64), rng.Intn(64))
	}
	delta := randArray(rng, 16, 16)
	for _, c := range []struct {
		name string
		form Form
	}{{"standard", Standard}, {"non-standard", NonStandard}} {
		b.Run(c.name, func(b *testing.B) {
			st, err := CreateStore(StoreOptions{Shape: []int{1024, 1024}, Form: c.form, TileBits: 4, Versioned: true})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			bHat := Transform(delta, c.form)
			for _, blk := range blocks { // reach the pools' steady state
				if err := st.MergeBlock(blk, bHat); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := st.MergeBlock(blocks[i%len(blocks)], bHat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreMaterialize writes the whole layout of a 1024² array at
// TileBits 4 in each form, on an in-memory store and on a durable,
// versioned file store: the one-chunk transform, the bucketing and slot
// step, the writes of every block and the commit.
func BenchmarkStoreMaterialize(b *testing.B) {
	src := randArray(rand.New(rand.NewSource(6)), 1024, 1024)
	for _, c := range []struct {
		name string
		form Form
	}{{"standard", Standard}, {"non-standard", NonStandard}} {
		for _, stack := range []string{"in-memory", "durable-versioned"} {
			b.Run(c.name+"/"+stack, func(b *testing.B) {
				opts := StoreOptions{Shape: []int{1024, 1024}, Form: c.form, TileBits: 4}
				if stack == "durable-versioned" {
					opts.Path, opts.Durable, opts.Versioned = filepath.Join(b.TempDir(), "cube.wav"), true, true
				}
				st, err := CreateStore(opts)
				if err != nil {
					b.Fatal(err)
				}
				defer st.Close()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := st.Materialize(src); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkReadTransform reads the whole transform back from a 1024²
// in-memory store at TileBits 4 in each form, the benchmark harness's
// pre-warm read: ReadArray's block-order scatter over every block.
func BenchmarkReadTransform(b *testing.B) {
	src := dataset.Dense([]int{1024, 1024}, 1)
	for _, c := range []struct {
		name string
		form Form
	}{{"standard", Standard}, {"non-standard", NonStandard}} {
		b.Run(c.name, func(b *testing.B) {
			st, err := CreateStore(StoreOptions{Shape: []int{1024, 1024}, Form: c.form, TileBits: 4})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			if err := st.TransformChunked(src, 6); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.ReadTransform(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkExtractBlock(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	a := randArray(rng, 256, 256)
	hat := Transform(a, Standard)
	blk := CubeBlock(4, 3, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Extract(hat, Standard, blk); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtractBox extracts a box of many dyadic pieces from a 1024²
// store at TileBits 4 in each form, reporting the distinct blocks read.
func BenchmarkExtractBox(b *testing.B) {
	src := dataset.Dense([]int{1024, 1024}, 16)
	start, extent := []int{37, 101}, []int{301, 203}
	for _, c := range []struct {
		name string
		form Form
	}{{"standard", Standard}, {"nonstandard", NonStandard}} {
		b.Run(c.name, func(b *testing.B) {
			st, err := CreateStore(StoreOptions{Shape: []int{1024, 1024}, Form: c.form, TileBits: 4})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			if err := st.TransformChunked(src, 6); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			blocks := 0
			for i := 0; i < b.N; i++ {
				_, n, err := st.ExtractBox(start, extent)
				if err != nil {
					b.Fatal(err)
				}
				blocks += n
			}
			b.ReportMetric(float64(blocks)/float64(b.N), "blocks/op")
		})
	}
}

// BenchmarkRangeSumCold serves range sums the way the benchmark harness's
// query_cold workload does: a durable, versioned 1024² store at TileBits 4,
// reopened for serving with a cache of 1/16 of its blocks, asked the
// harness's boxes (start below 512 and extent 1..512 per dimension). The
// standard store reads through pread, the non-standard one through the
// mapping, so the two sub-benchmarks cover both device read legs; run it
// with -cpuprofile to see where a cold block's time goes. It reports
// ns/op, allocs/op and blocks/op.
func BenchmarkRangeSumCold(b *testing.B) {
	src := dataset.Dense([]int{1024, 1024}, 1)
	rng := rand.New(rand.NewSource(1))
	const half = 512
	starts, extents := make([][]int, 1024), make([][]int, 1024)
	for i := range starts {
		starts[i] = []int{rng.Intn(half), rng.Intn(half)}
		extents[i] = []int{1 + rng.Intn(half), 1 + rng.Intn(half)}
	}
	for _, c := range []struct {
		name   string
		form   Form
		mapped bool
	}{{"std/pread", Standard, false}, {"nonstd/mapped", NonStandard, true}} {
		b.Run(c.name, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "cold.wav")
			st, err := CreateStore(StoreOptions{Shape: []int{1024, 1024}, Form: c.form, TileBits: 4, Path: path, Durable: true, Versioned: true, Mapped: c.mapped})
			if err != nil {
				b.Fatal(err)
			}
			if err := st.TransformChunked(src, 6); err != nil {
				b.Fatal(err)
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
			sv, err := OpenServingOpts(path, ServeOptions{CacheBlocks: st.NumBlocks() / 16})
			if err != nil {
				b.Fatal(err)
			}
			defer sv.Close()
			for k := range starts { // fill the cache with the workload's own blocks
				if _, _, err := sv.RangeSum(starts[k], extents[k]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			blocks := 0
			for i := 0; i < b.N; i++ {
				k := i % len(starts)
				_, n, err := sv.RangeSum(starts[k], extents[k])
				if err != nil {
					b.Fatal(err)
				}
				blocks += n
			}
			b.ReportMetric(float64(blocks)/float64(b.N), "blocks/op")
		})
	}
}

func BenchmarkPointQueryMaterialized(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	src := randArray(rng, 64, 64)
	st, err := CreateStore(StoreOptions{Shape: []int{64, 64}, Form: Standard, TileBits: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	if err := st.Materialize(src); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := st.Point(i%64, (i*7)%64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRangeSumStore(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	src := randArray(rng, 64, 64)
	st, err := CreateStore(StoreOptions{Shape: []int{64, 64}, Form: Standard, TileBits: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	if err := st.Materialize(src); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := st.RangeSum([]int{i % 32, i % 16}, []int{17, 23}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamAdd(b *testing.B) {
	for _, bits := range []int{0, 4, 8} {
		b.Run("B=2^"+strconv.Itoa(bits), func(b *testing.B) {
			s := stream.NewBuffered(64, bits)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Add(float64(i % 97))
			}
		})
	}
}

// --- ablations (DESIGN.md §5) -------------------------------------------------

// BenchmarkAblationTiling compares the block I/O of root-path point queries
// under the tree tiling versus a flat sequential layout.
func BenchmarkAblationTiling(b *testing.B) {
	src := dataset.Dense([]int{64, 64}, 6)
	hat := wavelet.TransformStandard(src)
	shape := []int{64, 64}

	tiling := tile.NewStandard([]int{6, 6}, 2)
	tiledCnt := storage.NewCounting(storage.NewMemStore(tiling.BlockSize()))
	tiled, err := tile.NewStore(tiledCnt, tiling)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := transform.ChunkedStandard(src, 6, tiled, 1); err != nil {
		b.Fatal(err)
	}
	seqTiling := tile.NewSequential(shape, tiling.BlockSize())
	seqCnt := storage.NewCounting(storage.NewMemStore(tiling.BlockSize()))
	seq, err := tile.NewStore(seqCnt, seqTiling)
	if err != nil {
		b.Fatal(err)
	}
	if err := tile.WriteArray(seq, hat); err != nil {
		b.Fatal(err)
	}

	run := func(b *testing.B, st *tile.Store, cnt *storage.Counting) {
		cnt.Reset()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			point := []int{i % 64, (i * 13) % 64}
			if _, _, err := query.PointViaRootPath(st, shape, point); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(cnt.Stats().Reads)/float64(b.N), "blocks/op")
	}
	b.Run("tree-tiling", func(b *testing.B) { run(b, tiled, tiledCnt) })
	b.Run("sequential", func(b *testing.B) { run(b, seq, seqCnt) })
}

// BenchmarkAblationScalingSlot compares point queries that exploit the
// stored per-tile scaling coefficient (one block) against root-path queries.
func BenchmarkAblationScalingSlot(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	src := randArray(rng, 64, 64)
	st, err := CreateStore(StoreOptions{Shape: []int{64, 64}, Form: Standard, TileBits: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	if err := st.Materialize(src); err != nil {
		b.Fatal(err)
	}
	b.Run("single-tile", func(b *testing.B) {
		io := 0
		for i := 0; i < b.N; i++ {
			_, n, err := st.Point(i%64, (i*13)%64)
			if err != nil {
				b.Fatal(err)
			}
			io += n
		}
		b.ReportMetric(float64(io)/float64(b.N), "blocks/op")
	})
	b.Run("root-path", func(b *testing.B) {
		io := 0
		for i := 0; i < b.N; i++ {
			_, n, err := query.PointViaRootPath(st.store, st.opts.Shape, []int{i % 64, (i * 13) % 64})
			if err != nil {
				b.Fatal(err)
			}
			io += n
		}
		b.ReportMetric(float64(io)/float64(b.N), "blocks/op")
	})
}

// BenchmarkAblationZOrder measures the block I/O of the non-standard chunked
// transformation under Result 2's z-order discipline: chunks in z-order
// into the write-once sink.
func BenchmarkAblationZOrder(b *testing.B) {
	src := dataset.Dense([]int{64, 64}, 8)
	b.Run("zorder", func(b *testing.B) {
		var blocks int64
		for i := 0; i < b.N; i++ {
			tiling := tile.NewNonStandard(6, 2, 2)
			cnt := storage.NewCounting(storage.NewMemStore(tiling.BlockSize()))
			st, err := tile.NewStore(cnt, tiling)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := transform.ChunkedNonStandard(src, 2, st, 0); err != nil {
				b.Fatal(err)
			}
			blocks += cnt.Stats().Total()
		}
		b.ReportMetric(float64(blocks)/float64(b.N), "blocks/op")
	})
}

// BenchmarkAblationBufferPool measures the effect of an LRU pool under the
// chunked standard transformation. The paper's Result 1 schedule re-reads
// split-path tiles across chunks, which a pool would absorb; the write-once
// sink writes each block once and reads none, so every row reports the
// store's block count and the pool has nothing left to save.
func BenchmarkAblationBufferPool(b *testing.B) {
	src := dataset.Dense([]int{64, 64}, 9)
	run := func(b *testing.B, pool int) {
		var blocks int64
		for i := 0; i < b.N; i++ {
			tiling := tile.NewStandard([]int{6, 6}, 2)
			cnt := storage.NewCounting(storage.NewMemStore(tiling.BlockSize()))
			var bs storage.BlockStore = cnt
			if pool > 0 {
				bs = storage.NewBufferPool(cnt, pool)
			}
			st, err := tile.NewStore(bs, tiling)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := transform.ChunkedStandard(src, 3, st, 0); err != nil {
				b.Fatal(err)
			}
			if p, ok := bs.(*storage.BufferPool); ok {
				if err := p.Flush(); err != nil {
					b.Fatal(err)
				}
			}
			blocks += cnt.Stats().Total()
		}
		b.ReportMetric(float64(blocks)/float64(b.N), "blocks/op")
	}
	b.Run("no-pool", func(b *testing.B) { run(b, 0) })
	b.Run("pool-16", func(b *testing.B) { run(b, 16) })
	b.Run("pool-64", func(b *testing.B) { run(b, 64) })
}

// --- extended-feature microbenchmarks ----------------------------------------

func BenchmarkCompressTopK(b *testing.B) {
	src := dataset.Dense([]int{128, 128}, 11)
	hat := Transform(src, Standard)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compress(hat, Standard, 256)
	}
}

func BenchmarkRollup(b *testing.B) {
	src := dataset.Dense([]int{64, 64, 16}, 12)
	hat := Transform(src, Standard)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Rollup(hat, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProgressiveRangeSum(b *testing.B) {
	src := dataset.Dense([]int{64, 64}, 13)
	st, err := CreateStore(StoreOptions{Shape: []int{64, 64}, Form: Standard})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	if err := st.Materialize(src); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.ProgressiveRangeSum([]int{i % 16, i % 8}, []int{30, 25}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNonStdAppend(b *testing.B) {
	cube := dataset.Dense([]int{16, 16}, 14)
	a, err := NewNonStdAppender(4, 2, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Append(cube); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSparseTransform(b *testing.B) {
	src := dataset.Sparse([]int{64, 64}, 0.02, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tiling := tile.NewNonStandard(6, 2, 2)
		st, err := tile.NewStore(storage.NewMemStore(tiling.BlockSize()), tiling)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := transform.ChunkedNonStandard(src, 2, st, 0); err != nil {
			b.Fatal(err)
		}
	}
}
