package tile

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/shiftsplit/shiftsplit/internal/ndarray"
)

// BlockCapacities returns, for every block of the tiling, how many real
// transform coefficients of an array with the given shape map into it:
// ChunkCapacities for one chunk covering the domain. Slots holding
// redundant scaling coefficients (slot 0 of non-root tiles) and unused
// slots of shallow tiles are not counted.
func BlockCapacities(shape []int, t Tiling) []int {
	_, nonStandard := t.(*NonStandard)
	return ChunkCapacities(t, shape, bits.Len(uint(slices.Max(shape))), nonStandard)
}

// ChunkCapacities returns, for every block of t, how many contributions
// the chunked engine's kernels make to it while transforming an array of
// the given shape in chunks of edge 2^m (clamped to each extent on the
// standard form): the capacity at which a write-once sink has seen the
// block's last contribution. It is a closed form, not a counting pass. A
// kernel gives each target one contribution per chunk feeding it, and a
// coefficient at level l is fed by one chunk if l <= m and else by the
// 2^(d(l-m)) chunks below its support (d = 1 per dimension on the
// standard form, which multiplies its dimensions' counts); the overall
// average, at level n, by every chunk. Per block the standard form
// factors into one sum per dimension's 1-d tile, and a 1-d or quadtree
// tile sums one term per level (treeSum); other tilings sum coefficient by
// coefficient.
func ChunkCapacities(t Tiling, shape []int, m int, nonStandard bool) []int {
	d := len(shape)
	n := make([]int, d)
	for i, e := range shape {
		n[i] = bits.Len(uint(e)) - 1
	}
	caps := make([]int, t.NumBlocks())
	std, isStd := t.(*Standard)
	nst, isNonStd := t.(*NonStandard)
	switch {
	case isStd && !nonStandard:
		sums := make([][]int, d)
		for i := range sums {
			od := std.Dim(i)
			sums[i] = make([]int, od.NumBlocks())
			for b := range sums[i] {
				j, _ := od.RootOf(b)
				sums[i][b] = treeSum(j, od.TileHeight(b), m, 1)
			}
			sums[i][od.top] += fedBy(n[i], m, 1)
		}
		for block := range caps {
			c := 1
			for i, s := range sums {
				c *= s[block/std.Stride(i)%len(s)]
			}
			caps[block] = c
		}
	case isNonStd && nonStandard:
		pos := make([]int, d)
		for block := range caps {
			caps[block] = treeSum(nst.rootInto(block, pos), nst.TileHeight(block), m, d)
		}
		caps[0] += fedBy(nst.n, m, d)
	default:
		coords := make([]int, d)
		for {
			fed := 1
			if nonStandard {
				fed = fedBy(indexLevel(n[0], slices.Max(coords)), m, d)
			} else {
				for i, c := range coords {
					fed *= fedBy(indexLevel(n[i], c), m, 1)
				}
			}
			block, _ := t.Locate(coords)
			caps[block] += fed
			i := d - 1
			for ; i >= 0; i-- {
				if coords[i]++; coords[i] < shape[i] {
					break
				}
				coords[i] = 0
			}
			if i < 0 {
				return caps
			}
		}
	}
	return caps
}

// treeSum returns the contributions a tile of height h rooted at level j
// receives: at each of its levels l, 2^(dims(j-l)) nodes of 2^dims - 1
// details (one detail per node in 1-d), each fed by fedBy(l, m, dims)
// chunks.
func treeSum(j, h, m, dims int) int {
	sum := 0
	for l := j; l > j-h; l-- {
		sum += (1<<uint(dims) - 1) << uint(dims*(j-l)) * fedBy(l, m, dims)
	}
	return sum
}

// fedBy returns how many chunks of level m feed a coefficient at level l
// of a transform in dims dimensions: 2^(dims(l-m)) above the chunks, else
// one.
func fedBy(l, m, dims int) int { return 1 << uint(dims*max(0, l-m)) }

// indexLevel returns the level of 1-d transform index idx of 2^n points:
// that of its detail, and n for the overall average at 0. On the
// non-standard form the largest of a coefficient's coordinates gives its
// node's level the same way.
func indexLevel(n, idx int) int { return n + 1 - bits.Len(uint(max(idx, 1))) }

// OnceWriter is the write-once sink of the chunked engines: it adds each
// contribution into its block, held in memory from the block's first
// contribution, and writes the block once, when its last contribution
// arrives. Every block costs a single write and no reads (the paper's
// Result 2 discipline, here on both forms). A block's capacity is the
// number of contributions it will receive (ChunkCapacities), so it
// completes at its last touch. A block that completes all zero is never
// written: unwritten blocks read back as zeros, which is how the engines
// keep the paper's sparse-data saving (§5.1).
type OnceWriter struct {
	store  *Store
	blocks []onceBlock
	// open counts the blocks between their first and last contribution,
	// maxOpen its high-water mark: the sink's memory in blocks.
	open, maxOpen int
	// Written blocks recycle their buffers here, zeroed: every BlockStore
	// copies written data before returning, so once the write succeeds the
	// slice can back the next block. The steady-state footprint is then
	// the open high-water mark, not one allocation per written block.
	free [][]float64
	// ids and data are Merge's scratch: the blocks one chunk completes.
	ids  []int
	data [][]float64
}

type onceBlock struct {
	data      []float64 // the block's sums while it is open, else nil
	remaining int       // contributions still to come
}

// NewOnceWriter creates a write-once sink over st, block i completing
// after capacities[i] contributions.
func NewOnceWriter(st *Store, capacities []int) *OnceWriter {
	w := &OnceWriter{store: st, blocks: make([]onceBlock, len(capacities))}
	for id, c := range capacities {
		w.blocks[id].remaining = c
	}
	return w
}

// zeroed returns a zeroed block-sized buffer, recycled when one is free.
func (w *OnceWriter) zeroed() []float64 {
	if n := len(w.free); n > 0 {
		buf := w.free[n-1]
		w.free = w.free[:n-1]
		return buf
	}
	return make([]float64, w.store.Tiling().BlockSize())
}

// opened opens a block on its first contribution with sums as its buffer.
func (w *OnceWriter) opened(ob *onceBlock, sums []float64) {
	ob.data = sums
	w.open++
	w.maxOpen = max(w.maxOpen, w.open)
}

// take counts n contributions to an open block and, at its last, closes
// it and returns its sums for writing, or nil when they are all zero (the
// buffer is then recycled at once).
func (w *OnceWriter) take(ob *onceBlock, n int) (data []float64, done bool) {
	if ob.remaining -= n; ob.remaining > 0 {
		return nil, false
	}
	data, ob.data = ob.data, nil
	w.open--
	for _, v := range data {
		if v != 0 {
			return data, true
		}
	}
	w.free = append(w.free, data)
	return nil, true
}

// recycle returns written buffers, zeroed, to the freelist.
func (w *OnceWriter) recycle(data [][]float64) {
	for _, buf := range data {
		clear(buf)
		w.free = append(w.free, buf)
	}
}

// Set adds v to a coefficient as one contribution, writing its block if
// that was the block's last.
func (w *OnceWriter) Set(coords []int, v float64) error {
	block, slot := w.store.Tiling().Locate(coords)
	ob := &w.blocks[block]
	if ob.data == nil {
		w.opened(ob, w.zeroed())
	}
	ob.data[slot] += v
	data, done := w.take(ob, 1)
	if !done || data == nil {
		return nil
	}
	err := w.store.WriteTile(block, data)
	w.recycle([][]float64{data})
	return err
}

// Merge folds one chunk's buckets into the sink, adding each delta into
// its block and counting the bucket's touches as its contributions, then
// writes every block whose last contribution this chunk was, ascending, as
// one vectored write. A block's first bucket is not copied: the sink keeps
// its Deltas as the block's sums and leaves a zeroed slice of its own in
// the bucket, so the caller must not read a bucket's Deltas after Merge.
// Every bucket opens its block before any completes, so MaxOpen counts the
// chunk's blocks together with those still open.
func (w *OnceWriter) Merge(buckets []Bucket) error {
	for i := range buckets {
		b := &buckets[i]
		ob := &w.blocks[b.Block]
		if ob.data == nil {
			sums := b.Deltas
			b.Deltas = w.zeroed()
			w.opened(ob, sums)
			continue
		}
		// No slot holds -0, so adding a zero delta changes no bit.
		for slot, v := range b.Deltas {
			ob.data[slot] += v
		}
	}
	w.ids, w.data = w.ids[:0], w.data[:0]
	for i := range buckets {
		b := &buckets[i]
		if data, _ := w.take(&w.blocks[b.Block], b.Touches); data != nil {
			w.ids, w.data = append(w.ids, b.Block), append(w.data, data)
		}
	}
	err := w.store.WriteTiles(w.ids, w.data)
	w.recycle(w.data)
	clear(w.data)
	return err
}

// MaxOpen returns the most blocks the sink held open at once: its memory
// in blocks beyond the chunk's own.
func (w *OnceWriter) MaxOpen() int { return w.maxOpen }

// Finish reports an error if a block is still waiting for contributions:
// capacities that do not match the contributions would otherwise leave it
// unwritten.
func (w *OnceWriter) Finish() error {
	if w.open == 0 {
		return nil
	}
	for id := range w.blocks {
		if ob := &w.blocks[id]; ob.data != nil {
			return fmt.Errorf("tile: write-once block %d incomplete: %d of its contributions never arrived", id, ob.remaining)
		}
	}
	return nil
}

// WriteArray stores a full in-memory transform through a tiled store with
// one write per block — the cost of sequentially dumping a transform.
func WriteArray(st *Store, hat *ndarray.Array) error {
	caps := BlockCapacities(hat.Shape(), st.Tiling())
	w := NewOnceWriter(st, caps)
	var err error
	hat.Each(func(coords []int, v float64) {
		if err != nil {
			return
		}
		err = w.Set(coords, v)
	})
	if err != nil {
		return err
	}
	return w.Finish()
}
