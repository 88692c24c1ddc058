package tile

import (
	"fmt"
	"math/bits"
	"sort"

	"github.com/shiftsplit/shiftsplit/internal/bitutil"
	"github.com/shiftsplit/shiftsplit/internal/core"
	"github.com/shiftsplit/shiftsplit/internal/dyadic"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
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

// ApplyBuckets folds bucketed deltas into the store: one ReadTile and one
// WriteTile per bucket, exactly the I/O of a per-coefficient
// read-modify-write loop that loads each tile once, but issued as one
// vectored read of every touched tile followed by one vectored write.
// Buckets arrive in ascending block order (BucketSet sorts them), so the
// batch is one consecutive run per dense region and the physical write
// sequence matches what the interleaved loop produced.
func (s *Store) ApplyBuckets(buckets []Bucket) error {
	if len(buckets) == 0 {
		return nil
	}
	blocks := make([]int, len(buckets))
	for i := range buckets {
		blocks[i] = buckets[i].Block
	}
	tiles, err := s.ReadTiles(blocks)
	if err != nil {
		return err
	}
	for i := range buckets {
		data := tiles[i]
		for slot, dv := range buckets[i].Deltas {
			if dv != 0 {
				data[slot] += dv
			}
		}
	}
	return s.WriteTiles(blocks, tiles)
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
	data := bHat.Data()
	for p.Next() {
		id, _ := p.Block()
		bk := bs.bucket(id)
		p.EachCoef(func(slot int, pick []PlanEntry) {
			off, w := 0, 1.0
			for i, e := range pick {
				off = off*bHat.Extent(i) + e.Src
				w *= e.W
			}
			bk.Deltas[slot] += data[off] * w
			bk.Touches++
		})
	}
}

// AccumulateShiftNonStandard buckets the SHIFT part of a non-standard
// embedding: the M^d - 1 details of bHat (the non-standard transform of the
// cubic chunk of edge 2^m at position pos, in chunk units) re-indexed into
// the enclosing cubic transform. For a *NonStandard tiling it computes
// (block, slot) with flat arithmetic per wavelet level and subband, walking
// contiguous source rows; slots advance by 2^d - 1 per step inside a tile.
// Other tilings fall back to the per-coefficient enumeration.
func AccumulateShiftNonStandard(t Tiling, shape []int, m int, pos []int, bHat *ndarray.Array, bs *BucketSet) {
	nst, ok := t.(*NonStandard)
	if !ok {
		core.EachShiftNonStandard(shape, m, pos, bHat, func(coords []int, v float64) {
			b, s := t.Locate(coords)
			bs.Add(b, s, v)
		})
		return
	}
	n, d := nst.n, nst.d
	if len(shape) != d || len(pos) != d || bHat.Dims() != d {
		panic(fmt.Sprintf("tile: AccumulateShiftNonStandard pos %v for d=%d", pos, d))
	}
	edge := 1 << uint(m)
	for t := 0; t < d; t++ {
		if shape[t] != 1<<uint(n) || bHat.Extent(t) != edge || pos[t] < 0 || pos[t] >= 1<<uint(n-m) {
			panic(fmt.Sprintf("tile: AccumulateShiftNonStandard block (m=%d, pos=%v) out of bounds", m, pos))
		}
	}
	D := 1 << uint(d)
	Dm1 := D - 1
	stride := make([]int, d)
	stride[d-1] = 1
	for t := d - 2; t >= 0; t-- {
		stride[t] = stride[t+1] * edge
	}
	data := bHat.Data()
	pp := make([]int, d-1)
	for j := 1; j <= m; j++ {
		P := 1 << uint(m-j) // per-dimension positions at level j
		depth := n - j
		band := nst.bandOf(depth)
		start := nst.bandStart(band)
		delta := depth - start
		nodesAbove := (bitutil.IntPow(D, delta) - 1) / Dm1
		cum := nst.cumRoot[band]
		deltaMask := 1<<uint(delta) - 1
		for mask := 1; mask < D; mask++ {
			// Source offset of the subband origin inside bHat.
			maskOff := 0
			for t := 0; t < d; t++ {
				if mask>>uint(t)&1 == 1 {
					maskOff += P * stride[t]
				}
			}
			for {
				rootHigh, localHigh, off := 0, 0, maskOff
				for t := 0; t < d-1; t++ {
					tp := pos[t]<<uint(m-j) + pp[t]
					rootHigh = rootHigh<<uint(start) | tp>>uint(delta)
					localHigh = localHigh<<uint(delta) | tp&deltaMask
					off += pp[t] * stride[t]
				}
				tp0 := pos[d-1] << uint(m-j)
				soff := off
				for pLast := 0; pLast < P; {
					tp := tp0 + pLast
					root := tp >> uint(delta)
					blockID := cum + (rootHigh<<uint(start) | root)
					local := localHigh<<uint(delta) | tp&deltaMask
					slot := 1 + (nodesAbove+local)*Dm1 + (mask - 1)
					segLen := (root+1)<<uint(delta) - tp
					if rem := P - pLast; segLen > rem {
						segLen = rem
					}
					bk := bs.bucket(blockID)
					for i := 0; i < segLen; i++ {
						bk.Deltas[slot] += data[soff]
						slot += Dm1
						soff++
					}
					bk.Touches += segLen
					pLast += segLen
				}
				t := d - 2
				for ; t >= 0; t-- {
					pp[t]++
					if pp[t] < P {
						break
					}
					pp[t] = 0
				}
				if t < 0 {
					break
				}
			}
		}
	}
}

// AccumulateSplitNonStandard buckets the SPLIT part of a non-standard
// embedding: the block average u feeds the (2^d - 1)(n - m) quadtree-path
// details plus the overall average — few enough targets that the generic
// per-target Locate is already cheap.
func AccumulateSplitNonStandard(t Tiling, shape []int, m int, pos []int, u float64, bs *BucketSet) {
	core.EachSplitNonStandard(shape, m, pos, u, func(coords []int, delta float64) {
		b, s := t.Locate(coords)
		bs.Add(b, s, delta)
	})
}
