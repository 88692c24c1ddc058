// Package transform implements the I/O-efficient transformation of massive
// multidimensional datasets (paper §5.1) and the external-memory baseline it
// is compared against, both operating against counted block storage so
// that the experiments of §6.1 can be regenerated:
//
//   - ChunkedStandard and ChunkedNonStandard (Results 1 and 2) run one
//     engine: memory-sized chunks in z-order, each transformed in memory
//     and bucketed by destination tile with the same SHIFT-SPLIT kernels
//     and scaling-slot step Store.MergeBlock runs, into a write-once sink
//     that adds the buckets into the blocks they touch and writes each
//     block once, at its last contribution. Neither form reads a block;
//   - Vitter (the baseline of [12, 13]): a straightforward external-memory
//     standard transformation that sweeps the working array level by level
//     per dimension through an LRU buffer pool, with no tiling and no
//     SHIFT-SPLIT.
//
// The paper's Result 1 schedule, which reads and writes every touched tile
// once per chunk, is Table 2's baseline in internal/experiments.
package transform

import (
	"fmt"
	"sync"

	"github.com/shiftsplit/shiftsplit/internal/bitutil"
	"github.com/shiftsplit/shiftsplit/internal/dyadic"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/parallel"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
	"github.com/shiftsplit/shiftsplit/internal/wavelet"
)

// Stats reports what an engine did. Block-level I/O on the destination
// store is measured by the storage.Counting wrapper the caller installs;
// Stats carries the engine-side quantities.
type Stats struct {
	InputCoefReads int64 // cells read from the source dataset
	Chunks         int   // chunks processed
	SkippedChunks  int   // all-zero chunks, whose transform is skipped (the §5.1 sparse-data saving)
	MaxOpenBlocks  int   // most blocks the write-once sink held at once
}

// allZero reports whether every cell of a is zero. A zero chunk contributes
// nothing to the transform (linearity), so the engine skips its transform
// and its zero contributions never materialize a block.
func allZero(a *ndarray.Array) bool {
	for _, v := range a.Data() {
		if v != 0 {
			return false
		}
	}
	return true
}

// checkChunkable validates src's shape and the chunk edge 2^m, which may
// exceed an extent (the standard engine clamps it per dimension) but not
// the largest one.
func checkChunkable(src *ndarray.Array, m int) ([]int, error) {
	if m < 0 {
		return nil, fmt.Errorf("transform: negative chunk bits %d", m)
	}
	shape := src.Shape()
	edge := 1 << uint(m)
	largest := 0
	for _, s := range shape {
		if !bitutil.IsPow2(s) {
			return nil, fmt.Errorf("transform: extent %d is not a power of two", s)
		}
		largest = max(largest, s)
	}
	if largest < edge {
		return nil, fmt.Errorf("transform: chunk edge %d exceeds every extent of %v", edge, shape)
	}
	return shape, nil
}

// chunkResult is one transformed chunk on its way from a worker to the
// ordered consumer: its bucketed deltas plus the engine-side statistics it
// contributes. scratch is the pooled per-chunk working state backing
// buckets; the consumer releases it once the buckets have landed.
type chunkResult struct {
	coefReads int64
	zero      bool
	buckets   []tile.Bucket
	scratch   *chunkScratch
}

// chunkScratch is the reusable per-chunk working state of the engine: the
// chunk buffer itself (filled by SubCopyInto, transformed in place), the
// wavelet scratch, the delta BucketSet, the start coordinates and the
// chunk's dyadic range. A sync.Pool bounds the population at the worker
// count plus the in-flight window, so the steady state allocates no
// chunk-sized or tile-sized buffer after warm-up.
type chunkScratch struct {
	chunk *ndarray.Array
	ws    *wavelet.Scratch
	set   *tile.BucketSet
	start []int
	block dyadic.Range
}

// release resets the scratch's bucket state and returns it to the pool.
func (sc *chunkScratch) release(pool *sync.Pool) {
	sc.set.Reset()
	pool.Put(sc)
}

// ChunkedStandard transforms src into the standard form held by out, using
// memory for one chunk of edge 2^m per dimension, clamped to each extent,
// so m at the largest extent's level makes the whole domain one chunk.
// Each chunk is transformed in memory and bucketed with SHIFT-SPLIT
// (Result 1) into the write-once sink; workers is the engine's parallel
// contract (see chunked). All-zero chunks skip their transform.
func ChunkedStandard(src *ndarray.Array, m int, out *tile.Store, workers int) (Stats, error) {
	if _, err := checkChunkable(src, m); err != nil {
		return Stats{}, err
	}
	return chunked(src, m, out, workers, false)
}

// ChunkedNonStandard transforms a cubic src into the non-standard form held
// by out, with memory for one chunk of edge 2^m, at Result 2's optimal
// write-only I/O: chunks arrive in z-order, so the split contributions of
// a chunk land in the tiles of its path, which stay open in the sink until
// the last chunk below them. workers is ChunkedStandard's contract.
func ChunkedNonStandard(src *ndarray.Array, m int, out *tile.Store, workers int) (Stats, error) {
	shape, err := checkChunkable(src, m)
	if err != nil {
		return Stats{}, err
	}
	for _, s := range shape[1:] {
		if s != shape[0] {
			return Stats{}, fmt.Errorf("transform: non-standard form requires a cubic dataset, got %v", shape)
		}
	}
	return chunked(src, m, out, workers, true)
}

// chunked is the one chunked engine. Chunks of edge 2^m (clamped to each
// extent) are visited in z-order over the chunk grid (zSchedule). produce
// copies a chunk out of src, transforms it in memory and buckets it with
// Store.MergeBlock's kernels (AccumulateEmbedStandard, or
// AccumulateShiftNonStandard and AccumulateSplitNonStandard) and
// AccumulateScalingSlots, on workers goroutines (<= 0 selects
// runtime.GOMAXPROCS(0)). consume merges each chunk's buckets into a
// tile.OnceWriter on the calling goroutine in schedule order, with block
// capacities from tile.ChunkCapacities, so results are bit-identical, I/O
// counts equal and the physical write sequence the same for every worker
// count (1 is the fully sequential fallback). An all-zero chunk skips its
// transform but still buckets its zeros: they count towards its blocks'
// capacities and leave a block that gets nothing else all zero, unwritten.
func chunked(src *ndarray.Array, m int, out *tile.Store, workers int, nonStandard bool) (Stats, error) {
	shape, tiling := src.Shape(), out.Tiling()
	d := len(shape)
	levels := make([]int, d)
	chunkShape := make([]int, d)
	grid := make([]int, d)
	for i, s := range shape {
		levels[i] = min(m, bitutil.Log2(s))
		chunkShape[i] = 1 << uint(levels[i])
		grid[i] = s / chunkShape[i]
	}
	schedule := zSchedule(grid)
	writer := tile.NewOnceWriter(out, tile.ChunkCapacities(tiling, shape, m, nonStandard))
	zeroHat := ndarray.New(chunkShape...) // read-only stand-in for all-zero chunks
	pool := &sync.Pool{New: func() any {
		return &chunkScratch{
			chunk: ndarray.New(chunkShape...),
			ws:    wavelet.NewScratch(),
			set:   tile.NewBucketSet(tiling.BlockSize()),
			start: make([]int, d),
			block: make(dyadic.Range, d),
		}
	}}
	produce := func(seq int) (chunkResult, error) {
		pos := schedule[seq*d : (seq+1)*d]
		sc := pool.Get().(*chunkScratch)
		for i, p := range pos {
			sc.start[i] = p << uint(levels[i])
			sc.block[i] = dyadic.Interval{Level: levels[i], Pos: p}
		}
		src.SubCopyInto(sc.chunk, sc.start)
		res := chunkResult{coefReads: int64(sc.chunk.Size()), scratch: sc}
		hat := zeroHat
		if allZero(sc.chunk) {
			res.zero = true
		} else {
			hat = sc.chunk
			if nonStandard {
				wavelet.TransformNonStandardInPlace(hat, sc.ws)
			} else {
				wavelet.TransformStandardInPlace(hat, sc.ws)
			}
		}
		if nonStandard {
			tile.AccumulateShiftNonStandard(tiling, shape, m, pos, hat, sc.set)
			tile.AccumulateSplitNonStandard(tiling, shape, m, pos, hat.Data()[0], sc.set)
		} else {
			tile.AccumulateEmbedStandard(tiling, shape, sc.block, hat, sc.set)
		}
		tile.AccumulateScalingSlots(tiling, sc.set)
		res.buckets = sc.set.Buckets()
		return res, nil
	}
	var st Stats
	consume := func(seq int, res chunkResult) error {
		st.InputCoefReads += res.coefReads
		st.Chunks++
		if res.zero {
			st.SkippedChunks++
		}
		err := writer.Merge(res.buckets)
		res.scratch.release(pool)
		return err
	}
	if err := parallel.Run(len(schedule)/d, workers, produce, consume); err != nil {
		return st, err
	}
	st.MaxOpenBlocks = writer.MaxOpen()
	return st, writer.Finish()
}

// zSchedule returns the cells of a grid of power-of-two extents in
// z-order, d coordinates per cell. On a grid whose extents differ it is
// the z-order of the smallest power-of-two cube holding the grid with the
// cells outside skipped: that order interleaves bit b of coordinate i at
// code bit b·d+i, and dropping the code bits no grid cell sets keeps the
// order of the rest, so cell number c takes its coordinates from c's bits
// in the interleaving of the bits that remain.
func zSchedule(grid []int) []int {
	d := len(grid)
	width := make([]int, d)
	cells, top := 1, 0
	for i, g := range grid {
		width[i] = bitutil.Log2(g)
		cells *= g
		top = max(top, width[i])
	}
	out := make([]int, cells*d)
	for c := range cells {
		pos, rest := out[c*d:(c+1)*d], c
		for b := 0; b < top; b++ {
			for i := range pos {
				if b < width[i] {
					pos[i] |= rest & 1 << uint(b)
					rest >>= 1
				}
			}
		}
	}
	return out
}

// Vitter is the baseline of [12, 13]: it materializes the working array on
// storage and performs the standard decomposition dimension by dimension,
// one level at a time, through an LRU buffer pool of memCoefs coefficients.
// No tiling and no SHIFT-SPLIT: every level pass streams the current
// averages region through the pool, with whatever locality the row-major
// block layout affords.
func Vitter(src *ndarray.Array, memCoefs int, out storage.BlockStore, blockSize int) (Stats, error) {
	var st Stats
	shape := src.Shape()
	for _, s := range shape {
		if !bitutil.IsPow2(s) {
			return st, fmt.Errorf("transform: extent %d is not a power of two", s)
		}
	}
	poolBlocks := bitutil.Max(1, memCoefs/blockSize)
	pool := storage.NewBufferPool(out, poolBlocks)
	flat := tile.NewSequential(shape, blockSize)
	stf, err := tile.NewStore(pool, flat)
	if err != nil {
		return st, err
	}
	// Load the dataset.
	var loadErr error
	src.Each(func(coords []int, v float64) {
		if loadErr != nil {
			return
		}
		st.InputCoefReads++
		loadErr = stf.Set(coords, v)
	})
	if loadErr != nil {
		return st, loadErr
	}
	// Level passes, dimension by dimension, operating in the compacted
	// in-place layout (averages at low indices along the active dimension).
	d := len(shape)
	coords := make([]int, d)
	for dim := 0; dim < d; dim++ {
		n := bitutil.Log2(shape[dim])
		for j := 1; j <= n; j++ {
			region := shape[dim] >> uint(j-1)
			half := region / 2
			// For every fiber position (other dims full range), combine
			// pairs along dim into average + detail.
			var rec func(i int) error
			rec = func(i int) error {
				if i == d {
					// Read the region along dim, transform one level,
					// write back.
					line := make([]float64, region)
					for x := 0; x < region; x++ {
						coords[dim] = x
						v, err := stf.Get(coords)
						if err != nil {
							return err
						}
						line[x] = v
					}
					for k := 0; k < half; k++ {
						avg := (line[2*k] + line[2*k+1]) / 2
						det := (line[2*k] - line[2*k+1]) / 2
						coords[dim] = k
						if err := stf.Set(coords, avg); err != nil {
							return err
						}
						coords[dim] = half + k
						if err := stf.Set(coords, det); err != nil {
							return err
						}
					}
					return nil
				}
				if i == dim {
					return rec(i + 1)
				}
				for v := 0; v < shape[i]; v++ {
					coords[i] = v
					if err := rec(i + 1); err != nil {
						return err
					}
				}
				return nil
			}
			if err := rec(0); err != nil {
				return st, err
			}
		}
	}
	if err := pool.Flush(); err != nil {
		return st, err
	}
	return st, nil
}
