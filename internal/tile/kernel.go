package tile

import (
	"fmt"
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

// locTarget is a located 1-d embedding target: weight plus (tile, slot)
// along one dimension.
type locTarget struct {
	w      float64
	bt, st int
}

// detailRun is a maximal run of consecutive innermost-dimension detail
// sources whose targets occupy consecutive slots of one 1-d tile.
type detailRun struct {
	src, n, bt, st int
}

// stdDimTab is the per-dimension geometry of a standard-form embedding.
type stdDimTab struct {
	stride, bsz, m int // block-id stride, 1-d tile slot count, chunk extent
	split          []locTarget
	det            []locTarget // det[i-1] locates the target of source index i
	runs           []detailRun // innermost dimension only
}

// AccumulateEmbedStandard buckets the complete SHIFT-SPLIT embedding of bHat
// (the standard transform of the block's contents) by destination tile of t.
// It produces exactly the contributions core.EachEmbedStandard enumerates,
// in a fixed order, but without per-coefficient coordinate slices: for a
// *Standard tiling the pure-SHIFT bulk — (M_1-1)···(M_d-1) sources, each
// with a single weight-1 target — is applied as contiguous row adds per
// wavelet level, and only the split fringe walks a target cross product.
// Other tilings fall back to the per-coefficient enumeration.
func AccumulateEmbedStandard(t Tiling, shape []int, block dyadic.Range, bHat *ndarray.Array, bs *BucketSet) {
	std, ok := t.(*Standard)
	if !ok {
		core.EachEmbedStandard(shape, block, bHat, func(coords []int, delta float64) {
			b, s := t.Locate(coords)
			bs.Add(b, s, delta)
		})
		return
	}
	d := std.Dims()
	if len(shape) != d || block.Dims() != d || bHat.Dims() != d {
		panic(fmt.Sprintf("tile: AccumulateEmbedStandard shape %v, block %v for %d-d tiling", shape, block, d))
	}
	tabs := make([]stdDimTab, d)
	for t := 0; t < d; t++ {
		od := std.Dim(t)
		n, m, k := od.Levels(), block[t].Level, block[t].Pos
		if shape[t] != 1<<uint(n) || m > n || k < 0 || k >= 1<<uint(n-m) || bHat.Extent(t) != 1<<uint(m) {
			panic(fmt.Sprintf("tile: AccumulateEmbedStandard block %v out of bounds for shape %v", block, shape))
		}
		tab := stdDimTab{stride: std.Stride(t), bsz: od.BlockSize(), m: 1 << uint(m)}
		for _, tt := range core.SplitTargets(n, m, k) {
			bt, st := od.Locate1D(tt.Index)
			tab.split = append(tab.split, locTarget{w: tt.Weight, bt: bt, st: st})
		}
		tab.det = make([]locTarget, tab.m-1)
		for i := 1; i < tab.m; i++ {
			bt, st := od.Locate1D(core.ShiftIndex(n, m, k, i))
			tab.det[i-1] = locTarget{w: 1, bt: bt, st: st}
		}
		tabs[t] = tab
	}
	stride := make([]int, d)
	stride[d-1] = 1
	for t := d - 2; t >= 0; t-- {
		stride[t] = stride[t+1] * tabs[t+1].m
	}
	data := bHat.Data()

	// Pure-SHIFT bulk: every dimension contributes a detail index (>= 1).
	allDetails := true
	for t := 0; t < d; t++ {
		if tabs[t].m < 2 {
			allDetails = false
			break
		}
	}
	if allDetails {
		last := &tabs[d-1]
		// Coalesce the innermost dimension's targets into slot-contiguous
		// runs (consecutive detail indices within one wavelet level land in
		// consecutive slots of one 1-d tile).
		r := detailRun{src: 1, n: 1, bt: last.det[0].bt, st: last.det[0].st}
		for i := 2; i < last.m; i++ {
			p := last.det[i-1]
			if p.bt == r.bt && p.st == r.st+r.n {
				r.n++
				continue
			}
			last.runs = append(last.runs, r)
			r = detailRun{src: i, n: 1, bt: p.bt, st: p.st}
		}
		last.runs = append(last.runs, r)

		outer := make([]int, d-1) // detail indices for dims 0..d-2
		for t := range outer {
			outer[t] = 1
		}
		for {
			blockBase, slotBase, off := 0, 0, 0
			for t := 0; t < d-1; t++ {
				p := tabs[t].det[outer[t]-1]
				blockBase += p.bt * tabs[t].stride
				slotBase = slotBase*tabs[t].bsz + p.st
				off += outer[t] * stride[t]
			}
			for _, r := range last.runs {
				bk := bs.bucket(blockBase + r.bt*last.stride)
				dst := bk.Deltas[slotBase*last.bsz+r.st:]
				src := data[off+r.src : off+r.src+r.n]
				for i, v := range src {
					dst[i] += v
				}
				bk.Touches += r.n
			}
			t := d - 2
			for ; t >= 0; t-- {
				outer[t]++
				if outer[t] < tabs[t].m {
					break
				}
				outer[t] = 1
			}
			if t < 0 {
				break
			}
		}
	}

	// Split fringe: sources with a scaling index (0) in at least one
	// dimension fan out over the cross product of per-dimension targets.
	src := make([]int, d)
	choice := make([]int, d)
	lists := make([][]locTarget, d)
	singles := make([]locTarget, d)
	for {
		anyZero := false
		for t := 0; t < d; t++ {
			if src[t] == 0 {
				anyZero = true
				break
			}
		}
		if anyZero {
			off := 0
			for t := 0; t < d; t++ {
				off += src[t] * stride[t]
				if src[t] == 0 {
					lists[t] = tabs[t].split
				} else {
					singles[t] = tabs[t].det[src[t]-1]
					lists[t] = singles[t : t+1]
				}
			}
			v := data[off]
			for t := range choice {
				choice[t] = 0
			}
			for {
				w := v
				blockID, slot := 0, 0
				for t := 0; t < d; t++ {
					tt := lists[t][choice[t]]
					w *= tt.w
					blockID += tt.bt * tabs[t].stride
					slot = slot*tabs[t].bsz + tt.st
				}
				bk := bs.bucket(blockID)
				bk.Deltas[slot] += w
				bk.Touches++
				t := d - 1
				for ; t >= 0; t-- {
					choice[t]++
					if choice[t] < len(lists[t]) {
						break
					}
					choice[t] = 0
				}
				if t < 0 {
					break
				}
			}
		}
		t := d - 1
		for ; t >= 0; t-- {
			src[t]++
			if src[t] < tabs[t].m {
				break
			}
			src[t] = 0
		}
		if t < 0 {
			return
		}
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
