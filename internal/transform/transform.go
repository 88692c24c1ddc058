// Package transform implements the I/O-efficient transformation of massive
// multidimensional datasets (paper §5.1) and the external-memory baseline it
// is compared against.
//
// Three engines are provided, all operating against counted block storage so
// that the experiments of §6.1 can be regenerated:
//
//   - ChunkedStandard (Result 1): transform memory-sized chunks and merge
//     them into the standard-form transform with SHIFT (write-once detail
//     subtrees) and SPLIT (read-modify-write root-path contributions);
//   - ChunkedNonStandard (Result 2): the same for the non-standard form,
//     with z-ordered chunk access and an in-memory crest, so the split
//     traffic disappears entirely and every output block is written
//     exactly once;
//   - Vitter (the baseline of [12, 13]): a straightforward external-memory
//     standard transformation that sweeps the working array level by level
//     per dimension through an LRU buffer pool, with no tiling and no
//     SHIFT-SPLIT.
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
	"github.com/shiftsplit/shiftsplit/internal/zorder"
)

// Stats reports what an engine did. Block-level I/O on the destination
// store is measured by the storage.Counting wrapper the caller installs;
// Stats carries the engine-side quantities.
type Stats struct {
	InputCoefReads int64 // cells read from the source dataset
	Chunks         int   // chunks processed
	SkippedChunks  int   // all-zero chunks skipped (the §5.1 sparse-data saving)
	MaxCrestMemory int   // peak buffered coefficients beyond the chunk (non-standard crest engine)
}

// allZero reports whether every cell of a is zero. A zero chunk contributes
// nothing to the transform (linearity), so the engines skip its output I/O
// entirely — the paper's accommodation for sparse data.
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
// ordered consumer: its bucketed SHIFT-SPLIT deltas plus the engine-side
// statistics it contributes. scratch is the pooled per-chunk working state
// backing buckets; the consumer releases it once the buckets have landed.
type chunkResult struct {
	coefReads int64
	zero      bool
	avg       float64 // chunk average (non-standard crest engine)
	buckets   []tile.Bucket
	scratch   *chunkScratch
}

// chunkScratch is the reusable per-chunk working state of a chunked engine:
// the chunk buffer itself (filled by SubCopyInto, transformed in place), the
// wavelet scratch, the delta BucketSet, and the start-coordinate slice. A
// sync.Pool bounds the population at the worker count plus the in-flight
// window, which puts the engines' steady state on an allocation diet: no
// chunk-sized or tile-sized allocation after warm-up.
type chunkScratch struct {
	chunk *ndarray.Array
	ws    *wavelet.Scratch
	set   *tile.BucketSet
	start []int
}

// newChunkPool builds the scratch pool for chunks of the given shape
// bucketing into tiles of blockSize slots.
func newChunkPool(chunkShape []int, blockSize int) *sync.Pool {
	return &sync.Pool{New: func() any {
		return &chunkScratch{
			chunk: ndarray.New(chunkShape...),
			ws:    wavelet.NewScratch(),
			set:   tile.NewBucketSet(blockSize),
			start: make([]int, len(chunkShape)),
		}
	}}
}

// release resets the scratch's bucket state and returns it to the pool.
func (sc *chunkScratch) release(pool *sync.Pool) {
	sc.set.Reset()
	pool.Put(sc)
}

// ChunkedStandard transforms src into the standard form held by out, using
// memory for one chunk of edge 2^m per dimension, clamped to each extent,
// so m at the largest extent's level makes the whole domain one chunk. Each
// chunk is transformed in memory and merged with SHIFT-SPLIT; every touched
// tile costs one read and one write per chunk (no cross-chunk caching,
// matching the paper's Result 1 analysis). Workers copy the chunks out of
// src in row-major order and transform and bucket them on workers
// goroutines (<= 0 selects runtime.GOMAXPROCS(0)); each chunk's deltas are
// applied on the calling goroutine in chunk order, so results are
// bit-identical, I/O counts equal and the physical write sequence the same
// for every worker count (1 is the fully sequential fallback). All-zero
// chunks are skipped.
func ChunkedStandard(src *ndarray.Array, m int, out *tile.Store, workers int) (Stats, error) {
	shape, err := checkChunkable(src, m)
	if err != nil {
		return Stats{}, err
	}
	var st Stats
	d := len(shape)
	levels := make([]int, d)
	grid := make([]int, d)
	chunkShape := make([]int, d)
	nChunks := 1
	for i, s := range shape {
		levels[i] = min(m, bitutil.Log2(s))
		chunkShape[i] = 1 << uint(levels[i])
		grid[i] = s / chunkShape[i]
		nChunks *= grid[i]
	}
	pool := newChunkPool(chunkShape, out.Tiling().BlockSize())
	produce := func(seq int) (chunkResult, error) {
		// The chunk's range: seq decomposed row-major over grid.
		block := make(dyadic.Range, d)
		sc := pool.Get().(*chunkScratch)
		for i, rest := d-1, seq; i >= 0; i, rest = i-1, rest/grid[i] {
			block[i] = dyadic.Interval{Level: levels[i], Pos: rest % grid[i]}
			sc.start[i] = block[i].Start()
		}
		src.SubCopyInto(sc.chunk, sc.start)
		res := chunkResult{coefReads: int64(sc.chunk.Size()), scratch: sc}
		if allZero(sc.chunk) {
			res.zero = true
			return res, nil
		}
		wavelet.TransformStandardInPlace(sc.chunk, sc.ws)
		tile.AccumulateEmbedStandard(out.Tiling(), shape, block, sc.chunk, sc.set)
		tile.AccumulateScalingSlots(out.Tiling(), sc.set)
		res.buckets = sc.set.Buckets()
		return res, nil
	}
	consume := func(seq int, res chunkResult) error {
		st.InputCoefReads += res.coefReads
		st.Chunks++
		if res.zero {
			st.SkippedChunks++
		}
		err := out.ApplyBuckets(res.buckets)
		res.scratch.release(pool)
		return err
	}
	err = parallel.Run(nChunks, workers, produce, consume)
	return st, err
}

// Crest is the in-memory bottom-up merger of Result 2: for every level above
// the chunks it buffers the 2^d child averages of the currently open node;
// when the last child arrives it emits the node's 2^d - 1 details (in the
// Mallat coordinates of the enclosing cubic transform) and pushes the node
// average one level up. It is also the engine of the non-standard stream
// synopsis (Result 5), which is why it is exported.
type Crest struct {
	d, n, m int
	// buf[j-m-1] holds the child averages accumulating for the open node at
	// level j; count[j-m-1] tracks how many have arrived.
	buf   [][]float64
	count []int
	emit  func(coords []int, v float64) error
	// Preallocated per-depth scratch: Push runs once per chunk (and
	// recursively per completed node), so its coordinate slices must not be
	// rebuilt per call. coords is shared across depths — emit must not
	// retain it, which every emitter (OnceWriter.Set, the stream synopsis)
	// honors; parents is per-depth because a completed node passes its
	// parent position into the recursive Push.
	parents [][]int
	coords  []int
	origin  []int
	// onAverage, when set, receives the average of every cell below the
	// root as it is pushed (its level and position), before it folds into
	// its parent: the z-order engine's source of crest tiles' scaling slots.
	onAverage func(level int, pos []int, avg float64) error
}

// NewCrest creates a crest for chunks of edge 2^m inside a cubic domain of
// edge 2^n with d dimensions; emit receives each finalized coefficient. The
// final call emits the overall average at the origin.
func NewCrest(d, n, m int, emit func(coords []int, v float64) error) *Crest {
	levels := n - m
	c := &Crest{d: d, n: n, m: m, emit: emit, count: make([]int, levels)}
	c.buf = make([][]float64, levels)
	c.parents = make([][]int, levels)
	for i := range c.buf {
		c.buf[i] = make([]float64, 1<<uint(d))
		c.parents[i] = make([]int, d)
	}
	c.coords = make([]int, d)
	c.origin = make([]int, d)
	return c
}

// Push delivers the average of the level-(m+depth) cell at position pos
// (z-order guarantees siblings arrive consecutively). External callers
// always use depth 0 (a chunk average); recursion uses higher depths.
func (c *Crest) Push(depth int, pos []int, avg float64) error {
	if c.m+depth == c.n {
		return c.emit(c.origin, avg)
	}
	if c.onAverage != nil {
		if err := c.onAverage(c.m+depth, pos, avg); err != nil {
			return err
		}
	}
	slot := 0
	for i := 0; i < c.d; i++ {
		slot |= (pos[i] & 1) << uint(i)
	}
	level := depth // index into buf: node being built at level m+depth+1
	c.buf[level][slot] = avg
	c.count[level]++
	if c.count[level] < 1<<uint(c.d) {
		return nil
	}
	// Node complete: compute its details and average.
	c.count[level] = 0
	j := c.m + depth + 1
	parent := c.parents[depth]
	for i := 0; i < c.d; i++ {
		parent[i] = pos[i] >> 1
	}
	den := float64(int(1) << uint(c.d))
	base := 1 << uint(c.n-j)
	coords := c.coords
	var parentAvg float64
	for mask := 0; mask < 1<<uint(c.d); mask++ {
		sum := 0.0
		for q := 0; q < 1<<uint(c.d); q++ {
			w := 1.0
			for i := 0; i < c.d; i++ {
				if mask>>uint(i)&1 == 1 && q>>uint(i)&1 == 1 {
					w = -w
				}
			}
			sum += w * c.buf[level][q]
		}
		sum /= den
		if mask == 0 {
			parentAvg = sum
			continue
		}
		for i := 0; i < c.d; i++ {
			coords[i] = parent[i]
			if mask>>uint(i)&1 == 1 {
				coords[i] += base
			}
		}
		if err := c.emit(coords, sum); err != nil {
			return err
		}
	}
	return c.Push(depth+1, parent, parentAvg)
}

// ChunkedNonStandard transforms a cubic src into the non-standard form held
// by out, with memory for one chunk of edge 2^m, achieving the optimal
// write-only I/O of Result 2: chunks are visited in z-order and chunk
// averages are folded bottom-up through an in-memory crest of
// (2^d-1)*log(N/M) coefficients, so no split contribution ever hits storage
// and every output block is written exactly once. workers is
// ChunkedStandard's parallel contract; only the chunk transforms and SHIFT
// bucketing are parallel, while the crest folds and the write-once block
// accounting stay on the single consumer goroutine, in z-order, which
// Result 2's zero-read, one-write-per-block discipline requires.
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
	var st Stats
	d, n := len(shape), bitutil.Log2(shape[0])
	edge := 1 << uint(m)
	side := 1 << uint(n-m)
	chunkShape := make([]int, d)
	for i := range chunkShape {
		chunkShape[i] = edge
	}
	caps := tile.BlockCapacities(shape, out.Tiling())
	writer := tile.NewOnceWriter(out, caps)
	cr := NewCrest(d, n, m, writer.Set)
	// Every tile but the top one also holds its root cell's average in slot
	// 0, written with the rest of the block: a tile rooted inside a chunk
	// takes it from the chunk's transform, any other from the crest.
	nst, slots := out.Tiling().(*tile.NonStandard)
	if slots {
		for block := 1; block < nst.NumBlocks(); block++ {
			caps[block]++
		}
		cr.onAverage = func(level int, pos []int, avg float64) error {
			if level == 0 {
				return nil // a single cell roots no tile
			}
			lvl := nst.Level(level)
			if !lvl.TileRoot() {
				return nil
			}
			root, local := 0, 0
			for _, p := range pos {
				root, local = lvl.Push(root, local, p)
			}
			block, _ := lvl.At(root, local)
			return writer.SetSlot(block, 0, avg)
		}
	}
	zeroHat := ndarray.New(chunkShape...) // read-only stand-in for all-zero chunks
	// The z-order chunk schedule, fixed up front so workers can transform
	// ahead while the consumer folds crest averages strictly in order.
	positions := make([][]int, 0, bitutil.IntPow(side, d))
	zorder.Curve(d, side, func(pos []int) {
		positions = append(positions, append([]int(nil), pos...))
	})
	maxPending := 0
	origin := make([]int, d)
	pool := newChunkPool(chunkShape, out.Tiling().BlockSize())
	produce := func(seq int) (chunkResult, error) {
		pos := positions[seq]
		sc := pool.Get().(*chunkScratch)
		for i := range pos {
			sc.start[i] = pos[i] * edge
		}
		src.SubCopyInto(sc.chunk, sc.start)
		res := chunkResult{coefReads: int64(sc.chunk.Size()), scratch: sc}
		// A zero chunk still participates in the crest (its siblings need
		// its average) and its zero details must still be recorded so that
		// boundary blocks complete — but the writer never materializes or
		// writes blocks that stay entirely zero.
		hat := zeroHat
		if allZero(sc.chunk) {
			res.zero = true
		} else {
			wavelet.TransformNonStandardInPlace(sc.chunk, sc.ws)
			hat = sc.chunk
			res.avg = hat.At(origin...)
		}
		// Details of the chunk subtree are final: bucket them for the
		// write-once sink.
		tile.AccumulateShiftNonStandard(out.Tiling(), shape, m, pos, hat, sc.set)
		if slots {
			tile.AccumulateChunkScalingNonStandard(nst, m, pos, hat, sc.set)
		}
		res.buckets = sc.set.Buckets()
		return res, nil
	}
	consume := func(seq int, res chunkResult) error {
		st.InputCoefReads += res.coefReads
		st.Chunks++
		if res.zero {
			st.SkippedChunks++
		}
		for i := range res.buckets {
			b := &res.buckets[i]
			if err := writer.MergeBucket(b.Block, b.Deltas, b.Touches); err != nil {
				res.scratch.release(pool)
				return err
			}
		}
		// MergeBucket copies what it keeps, so the scratch (and the bucket
		// deltas it backs) recycles before the crest fold.
		res.scratch.release(pool)
		// The chunk average climbs the crest instead of touching storage.
		if err := cr.Push(0, positions[seq], res.avg); err != nil {
			return err
		}
		if p := writer.Pending() * out.Tiling().BlockSize(); p > maxPending {
			maxPending = p
		}
		return nil
	}
	if err := parallel.Run(len(positions), workers, produce, consume); err != nil {
		return st, err
	}
	if err := writer.Flush(); err != nil {
		return st, err
	}
	st.MaxCrestMemory = maxPending + (1<<uint(d))*(n-m)
	return st, nil
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
