package tile

import (
	"fmt"
	"math/bits"
	"sort"

	"github.com/shiftsplit/shiftsplit/internal/core"
	"github.com/shiftsplit/shiftsplit/internal/dyadic"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// Bucket holds the deltas one chunk contributes to one destination tile.
// Deltas is a dense block-sized slice (slot-indexed); Touches counts the
// individual coefficient contributions accumulated into it, which is what
// OnceWriter capacity accounting consumes.
type Bucket struct {
	Block   int
	Deltas  []float64
	Touches int
}

// BucketSet accumulates the SHIFT-SPLIT output of one chunk, bucketed by
// destination tile. It is the unit of work handed from a transform worker to
// the applier: applying one bucket costs exactly one tile read and one tile
// write, preserving the paper's per-chunk I/O accounting regardless of how
// many coefficients land in each tile.
//
// Accumulation order within a bucket is fixed by the kernels below, so the
// floating-point sums are identical for any worker count.
//
// A set is reusable: Reset recycles every delta slice onto an internal
// freelist, so an engine that pools one BucketSet per worker allocates
// bucket storage only until the high-water tile count is reached.
type BucketSet struct {
	blockSize int
	index     map[int]int
	buckets   []Bucket
	free      [][]float64 // zeroed block-sized slices awaiting reuse
	plan      Plan        // the standard-form kernel's and slot step's plan
	ns        NonStdPlan  // the non-standard kernels' and slot steps' plan
	slots     slotScratch // AccumulateScalingSlots' working state
}

// NewBucketSet creates an empty set for tiles of the given slot count.
func NewBucketSet(blockSize int) *BucketSet {
	return &BucketSet{blockSize: blockSize, index: make(map[int]int)}
}

// bucket returns the bucket for a block, creating it on first touch. The
// returned pointer is invalidated by the next bucket call.
func (bs *BucketSet) bucket(block int) *Bucket {
	if i, ok := bs.index[block]; ok {
		return &bs.buckets[i]
	}
	var deltas []float64
	if n := len(bs.free); n > 0 {
		deltas = bs.free[n-1]
		bs.free = bs.free[:n-1]
	} else {
		deltas = make([]float64, bs.blockSize)
	}
	bs.index[block] = len(bs.buckets)
	bs.buckets = append(bs.buckets, Bucket{Block: block, Deltas: deltas})
	return &bs.buckets[len(bs.buckets)-1]
}

// Reset returns the set to empty, recycling every bucket's delta slice for
// the next accumulation. Buckets previously handed out by Buckets() are
// invalidated: their Deltas are zeroed and will be reused.
func (bs *BucketSet) Reset() {
	for i := range bs.buckets {
		b := &bs.buckets[i]
		clear(b.Deltas)
		bs.free = append(bs.free, b.Deltas)
		b.Deltas = nil
	}
	bs.buckets = bs.buckets[:0]
	if bs.index == nil {
		bs.index = make(map[int]int)
	} else {
		clear(bs.index)
	}
}

// Add accumulates one contribution (the generic, per-coefficient path used
// with tilings the flat kernels do not specialize).
func (bs *BucketSet) Add(block, slot int, delta float64) {
	b := bs.bucket(block)
	b.Deltas[slot] += delta
	b.Touches++
}

// Len returns the number of distinct tiles touched so far.
func (bs *BucketSet) Len() int { return len(bs.buckets) }

// Buckets returns the accumulated buckets in ascending block order. The
// returned slice (and every Deltas inside it) stays valid until the next
// Reset; the set must not be accumulated into again before then.
func (bs *BucketSet) Buckets() []Bucket {
	sort.Slice(bs.buckets, func(i, j int) bool { return bs.buckets[i].Block < bs.buckets[j].Block })
	return bs.buckets
}

// applyGroup is how many tiles ApplyBuckets and ReadArray read per
// vectored call: the run a FileStore coalesces into one positional read.
const applyGroup = 64

// applyScratch is ApplyBuckets' reused state: the batch's ids and written
// frames, and one group of read frames. Writes are serialized, so one per
// Store serves them all.
type applyScratch struct {
	ids    []int
	data   [][]float64
	slab   []float64
	frames [][]float64
}

// ApplyBuckets folds bucketed deltas into the store: one ReadTile and one
// WriteTile per bucket, exactly the I/O of a per-coefficient
// read-modify-write loop that loads each tile once, issued as vectored
// reads of the touched tiles, a group at a time into a slab the Store
// keeps, followed by one vectored write. Buckets arrive in ascending block
// order (BucketSet sorts them), so the batch is one consecutive run per
// dense region and the physical write sequence matches what the
// interleaved loop produced.
//
// The buckets are consumed: each tile is folded into its bucket's Deltas,
// which are what is written, so the call holds no second copy of the
// touched tiles. Like every write, it must not run concurrently with
// another write on the same Store.
func (s *Store) ApplyBuckets(buckets []Bucket) error {
	if len(buckets) == 0 {
		return nil
	}
	sc := &s.apply
	bsz := s.tiling.BlockSize()
	if sc.frames == nil {
		sc.slab = make([]float64, applyGroup*bsz)
		sc.frames = storage.SliceFrames(sc.slab, applyGroup, bsz)
	}
	sc.ids, sc.data = sc.ids[:0], sc.data[:0]
	for i := range buckets {
		sc.ids = append(sc.ids, buckets[i].Block)
		sc.data = append(sc.data, buckets[i].Deltas)
	}
	defer clear(sc.data) // drop the references to the caller's buckets
	for lo := 0; lo < len(buckets); lo += applyGroup {
		hi := min(lo+applyGroup, len(buckets))
		frames := sc.frames[:hi-lo]
		if err := s.ReadTilesInto(sc.ids[lo:hi], frames); err != nil {
			return err
		}
		for i, tile := range frames {
			// tile + delta, as the read-modify-write loop adds it; a zero
			// delta leaves the stored value (and its sign) untouched.
			d := buckets[lo+i].Deltas
			for slot, dv := range d {
				if dv != 0 {
					d[slot] = tile[slot] + dv
				} else {
					d[slot] = tile[slot]
				}
			}
		}
	}
	return s.WriteTiles(sc.ids, sc.data)
}

// AccumulateEmbedStandard buckets the complete SHIFT-SPLIT embedding of bHat
// (the standard transform of the block's contents) by destination tile of t.
// It produces exactly the contributions core.EachEmbedStandard enumerates,
// but without per-coefficient coordinate slices: the embedding is the cross
// product of each dimension's targets (Plan.Embed), so the plan's walk
// visits each destination tile once and adds its share of the product, a
// source coefficient times its targets' weights per slot. Every target slot
// takes one contribution, so the order of the adds does not show in the
// sums. Other tilings locate each target whole.
func AccumulateEmbedStandard(t Tiling, shape []int, block dyadic.Range, bHat *ndarray.Array, bs *BucketSet) {
	d := len(shape)
	if block.Dims() != d || bHat.Dims() != d {
		panic(fmt.Sprintf("tile: AccumulateEmbedStandard shape %v, block %v", shape, block))
	}
	p := &bs.plan
	p.Reset(t)
	for i, e := range shape {
		n, m, k := bits.Len(uint(e))-1, block[i].Level, block[i].Pos
		if e != 1<<uint(n) || m > n || k < 0 || k >= 1<<uint(n-m) || bHat.Extent(i) != 1<<uint(m) {
			panic(fmt.Sprintf("tile: AccumulateEmbedStandard block %v out of bounds for shape %v", block, shape))
		}
		p.Embed(n, m, k)
	}
	data, last := bHat.Data(), bHat.Extent(d-1)
	for p.Next() {
		id, _ := p.Block()
		bk := bs.bucket(id)
		p.EachRow(func(slot int, pick, run []PlanEntry) {
			off, w := 0, 1.0
			for i, e := range pick[:d-1] {
				off = off*bHat.Extent(i) + e.Src
				w *= e.W
			}
			off *= last
			for _, e := range run {
				bk.Deltas[slot+e.Slot] += data[off+e.Src] * (w * e.W)
			}
			bk.Touches += len(run)
		})
	}
}

// AccumulateShiftNonStandard buckets the SHIFT part of a non-standard
// embedding: the M^d - 1 details of bHat (the non-standard transform of the
// cubic chunk of edge 2^m at position pos, in chunk units) re-indexed into
// the enclosing cubic transform. For a *NonStandard tiling they are the
// chunk's subtree in a NonStdPlan, whose walk visits each destination tile
// once and hands over runs of consecutive source coefficients. Every
// target slot takes one contribution, so the order of the adds does not
// show in the sums. Other tilings fall back to the per-coefficient
// enumeration.
func AccumulateShiftNonStandard(t Tiling, shape []int, m int, pos []int, bHat *ndarray.Array, bs *BucketSet) {
	nst, ok := t.(*NonStandard)
	if !ok {
		core.EachShiftNonStandard(shape, m, pos, bHat, func(coords []int, v float64) {
			b, s := t.Locate(coords)
			bs.Add(b, s, v)
		})
		return
	}
	nst.checkCube(shape, m, pos, bHat)
	data, step, p := bHat.Data(), 1<<uint(nst.d)-1, &bs.ns
	p.Cube(nst, m, pos, 1, m)
	for p.Next() {
		bk := bs.bucket(p.Block())
		hi, low := p.Levels()
		for j := hi; j >= low; j-- {
			p.Runs(j, func(slot, src, n int) {
				for _, v := range data[src : src+n] {
					bk.Deltas[slot] += v
					slot += step
				}
				bk.Touches += n
			})
		}
	}
}

// AccumulateSplitNonStandard buckets the SPLIT part of a non-standard
// embedding: the chunk average u feeds the (2^d - 1)(n - m) details on its
// path, attenuated by 2^-d per level above the chunk and signed by the
// chunk's side of each node, plus the overall average. For a *NonStandard
// tiling the path is the chunk's in a NonStdPlan; other tilings locate
// each target whole.
func AccumulateSplitNonStandard(t Tiling, shape []int, m int, pos []int, u float64, bs *BucketSet) {
	nst, ok := t.(*NonStandard)
	if !ok {
		core.EachSplitNonStandard(shape, m, pos, u, func(coords []int, delta float64) {
			b, s := t.Locate(coords)
			bs.Add(b, s, delta)
		})
		return
	}
	nst.checkCube(shape, m, pos, nil)
	attn := resized(bs.slots.attn, nst.n+1)
	attn[m] = u
	for j := m + 1; j <= nst.n; j++ {
		attn[j] = attn[j-1] / float64(int64(1)<<uint(nst.d))
	}
	bs.slots.attn = attn
	p := &bs.ns
	p.Cube(nst, m, pos, m+1, nst.n)
	for p.Next() {
		bk := bs.bucket(p.Block())
		hi, low := p.Levels()
		for j := hi; j >= low; j-- {
			slot, neg := p.node(j)
			for mask := 1; mask < 1<<uint(nst.d); mask++ {
				bk.Deltas[slot+mask-1] += sign(mask, neg) * attn[j]
				bk.Touches++
			}
		}
	}
	bs.Add(0, 0, attn[nst.n])
}

// checkCube panics unless shape is the tiled cube, the chunk of edge 2^m
// at position pos lies inside it, and hat, unless nil, has the chunk's
// shape.
func (nt *NonStandard) checkCube(shape []int, m int, pos []int, hat *ndarray.Array) {
	ok := len(shape) == nt.d && len(pos) == nt.d && m >= 0 && m <= nt.n && (hat == nil || hat.Dims() == nt.d)
	for t := 0; ok && t < nt.d; t++ {
		ok = shape[t] == 1<<uint(nt.n) && pos[t] >= 0 && pos[t] < 1<<uint(nt.n-m) && (hat == nil || hat.Extent(t) == 1<<uint(m))
	}
	if !ok {
		panic(fmt.Sprintf("tile: non-standard chunk (m=%d, pos=%v) out of bounds for shape %v", m, pos, shape))
	}
}
