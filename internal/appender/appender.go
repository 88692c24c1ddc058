// Package appender implements appending to wavelet-decomposed data (paper
// §5.2): new data that enlarges the domain of one or more dimensions is
// folded into an existing standard-form transform without reconstructing the
// original data.
//
// Appending has two phases. When the incoming slab no longer fits the
// transformed domain, the domain is expanded: the dimension's wavelet tree
// grows one level (Figure 10), the old tree becoming the left subtree of a
// new root into which the old overall average SPLITs. The store is tiled in
// growth order with the appended dimension outermost (tile.NewGrowthStandard),
// so no block is renamed and only the top band along that dimension changes:
// an expansion rewrites the top-band tiles times the cross-section, whatever
// the extent — the paper's layout rewrites the whole transform, the jumps of
// Figure 13. Then the slabs are transformed in memory and merged with
// SHIFT-SPLIT at a cost of O(M + log(N/M)) coefficients per dyadic piece.
package appender

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/shiftsplit/shiftsplit/internal/bitutil"
	"github.com/shiftsplit/shiftsplit/internal/dyadic"
	"github.com/shiftsplit/shiftsplit/internal/haar"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
	"github.com/shiftsplit/shiftsplit/internal/wavelet"
)

// Backing provides the block store the appender keeps for its whole life;
// it is called once, with generation 0 (the argument is vestigial: domain
// expansion works in place). Returning a transactional store
// (storage.Durable) makes each append batch, its expansions included, one
// atomic journal group: the appender commits at those boundaries.
type Backing func(generation, blockSize int) (storage.BlockStore, error)

// ErrInDoubt marks an append whose final group commit failed after the
// journal may already have sealed the batch: the slabs are neither
// reliably durable nor reliably absent, and only reopening the backing
// (which replays or discards the journal) resolves the outcome. The
// appender refuses further work once in doubt.
var ErrInDoubt = errors.New("appender: commit outcome in doubt")

// Appender maintains a growing dataset in the wavelet domain on tiled,
// I/O-counted block storage.
//
// An Appender is NOT safe for concurrent use: Append/AppendBatch mutate
// the frontier and the staged transform, and even the read-side helpers
// (Store, Reconstruct, TotalIO) observe that state mid-mutation. Callers
// with concurrent clients must serialize externally — the ingest
// subsystem does so by funneling every append through one commit loop.
type Appender struct {
	b        int // tile parameter: blocks hold 2^(b*d) coefficients
	shape    []int
	used     []int
	store    *tile.Store        // the device under the current domain's tiling
	base     storage.BlockStore // the device (rollback seam)
	counting *storage.Counting

	// Separate attributions of the lifetime I/O (satellite of the ingest
	// work: fsync-amortization claims need slab-write cost unpolluted by
	// expansion cost). TotalIO remains the device truth; these two split
	// the portion spent inside Append calls.
	expansionTotal storage.Stats
	mergeTotal     storage.Stats

	// poisoned is set when an error left the on-store state unreliable
	// (unrecoverable commit, non-transactional backing with a half-applied
	// batch). Every later append fails with it.
	poisoned error

	// ws and cells are the transform scratch every dyadic run reuses (the
	// buffer its cells are gathered into and transformed in); set is the
	// group's delta buckets, recycled by Reset. Steady-state appends stop
	// allocating run- and tile-sized buffers.
	ws    *wavelet.Scratch
	cells []float64
	set   *tile.BucketSet
}

// AppendStats reports the cost of one Append or AppendBatch call.
// ExpansionIO and MergeIO are disjoint windows: expansion covers the
// domain-doubling passes (the top-band blocks they read and rewrite), merge
// covers transforming and applying the slabs plus the single group commit
// that seals them and the expansions together.
type AppendStats struct {
	Expansions  int           // domain doublings triggered
	Slabs       int           // client slabs folded in
	ExpansionIO storage.Stats // block I/O spent expanding
	MergeIO     storage.Stats // block I/O spent merging the slabs
}

// New creates an appender over an initially empty domain of the given
// power-of-two shape, tiled with per-dimension block edge 2^b, backed by
// in-memory storage.
func New(shape []int, b int) (*Appender, error) {
	return NewWithBacking(shape, b, nil)
}

// NewWithBacking is New with an explicit store provider; backing == nil
// selects in-memory stores.
func NewWithBacking(shape []int, b int, backing Backing) (*Appender, error) {
	for _, s := range shape {
		if !bitutil.IsPow2(s) {
			return nil, fmt.Errorf("appender: extent %d is not a power of two", s)
		}
	}
	tiling := tile.NewGrowthStandard(log2s(shape), b, 0)
	var base storage.BlockStore = storage.NewMemStore(tiling.BlockSize())
	if backing != nil {
		var err error
		if base, err = backing(0, tiling.BlockSize()); err != nil {
			return nil, err
		}
	}
	a := &Appender{
		b:        b,
		shape:    append([]int(nil), shape...),
		used:     make([]int, len(shape)),
		base:     base,
		counting: storage.NewCounting(base),
	}
	if err := a.retile(tiling); err != nil {
		return nil, err
	}
	return a, nil
}

// log2s returns the per-dimension level counts of a power-of-two shape.
func log2s(shape []int) []int {
	ns := make([]int, len(shape))
	for t, e := range shape {
		ns[t] = bitutil.Log2(e)
	}
	return ns
}

// retile points the store view at the device under tiling.
func (a *Appender) retile(tiling *tile.Standard) error {
	st, err := tile.NewStore(a.counting, tiling)
	if err != nil {
		return err
	}
	a.store = st
	return nil
}

// Shape returns the current transformed domain extents.
func (a *Appender) Shape() []int { return append([]int(nil), a.shape...) }

// Used returns the extents actually occupied by appended data.
func (a *Appender) Used() []int { return append([]int(nil), a.used...) }

// Store exposes the tiled transform for querying.
func (a *Appender) Store() *tile.Store { return a.store }

// TotalIO returns the cumulative block I/O across all appends and
// expansions.
func (a *Appender) TotalIO() storage.Stats { return a.counting.Stats() }

// IOBreakdown splits the lifetime I/O spent inside Append/AppendBatch
// calls into its two phases: domain expansion and slab merging (including
// each batch's group commit). TotalIO may exceed their sum — queries and
// reconstruction through Store() are attributed to neither phase.
func (a *Appender) IOBreakdown() (expansion, merge storage.Stats) {
	return a.expansionTotal, a.mergeTotal
}

// Poisoned returns the sticky error set when a failure left the stored
// transform unreliable, or nil while the appender is healthy.
func (a *Appender) Poisoned() error { return a.poisoned }

// Append folds slab into the dataset along dim, at offset Used()[dim]. The
// slab must span the used extent of every other dimension. The domain is
// expanded as needed.
func (a *Appender) Append(dim int, slab *ndarray.Array) (AppendStats, error) {
	return a.AppendBatch(dim, []*ndarray.Array{slab})
}

// AppendBatch folds a group of slabs into the dataset along dim, in
// order, as ONE atomic batch and one in-memory chunk: the domain expansions
// the group needs are staged first, then the contiguous region the slabs
// cover is transformed and SHIFT-SPLIT-merged into the staged transform
// (see merge), and a single Commit seals expansions and slabs together. On
// a transactional backing the whole group therefore costs one journal
// group — the fsync amortization the ingest front door is built on — and a
// crash recovers to either the pre-batch domain and data or the post-batch
// ones.
//
// Error semantics: validation errors leave the appender untouched. A
// failure before the final commit rolls the staged writes, the domain, its
// tiling and the frontier back (the group is known not committed) when the
// backing supports rollback; otherwise the appender is poisoned. A
// final-commit failure is retried while the fault looks transient; if it
// does not clear, the group's outcome is unknowable in-process and the
// error wraps ErrInDoubt.
func (a *Appender) AppendBatch(dim int, slabs []*ndarray.Array) (AppendStats, error) {
	var st AppendStats
	if a.poisoned != nil {
		return st, a.poisoned
	}
	d := len(a.shape)
	if dim < 0 || dim >= d {
		return st, fmt.Errorf("appender: dimension %d out of range", dim)
	}
	if len(slabs) == 0 {
		return st, nil
	}
	// Validate the whole group up front so no slab can fail after its
	// predecessors were staged. Cross extents chain exactly as in repeated
	// Append calls: the first slab of an empty dimension fixes them.
	cross := append([]int(nil), a.used...)
	growth := 0
	for _, slab := range slabs {
		if slab.Dims() != d {
			return st, fmt.Errorf("appender: slab has %d dims, want %d", slab.Dims(), d)
		}
		for t := 0; t < d; t++ {
			if t == dim {
				continue
			}
			want := cross[t]
			if want == 0 {
				want = slab.Extent(t) // first append fixes the cross extents
			}
			if slab.Extent(t) != want {
				return st, fmt.Errorf("appender: slab extent %d in dim %d, want %d", slab.Extent(t), t, want)
			}
			if slab.Extent(t) > a.shape[t] {
				return st, fmt.Errorf("appender: slab extent %d exceeds domain %d in dim %d", slab.Extent(t), a.shape[t], t)
			}
			// The slab spans [0, extent) in this dimension; that must be a
			// dyadic prefix of the domain.
			if !bitutil.IsPow2(slab.Extent(t)) {
				return st, fmt.Errorf("appender: cross extent %d is not a power of two", slab.Extent(t))
			}
			cross[t] = want
		}
		growth += slab.Extent(dim)
	}
	view, shapeBefore, usedBefore := a.store, append([]int(nil), a.shape...), append([]int(nil), a.used...)
	if slices.Max(a.used) == 0 {
		// The first append's dimension becomes the outermost radix of the
		// block ids, so its expansions rename nothing. The store is still
		// empty: re-tiling it moves no block.
		if err := a.retile(tile.NewGrowthStandard(log2s(a.shape), a.b, dim)); err != nil {
			return st, err
		}
	}
	// Expand until the whole group fits. Expansions only stage their
	// writes: they ride in the group's journal group, and the merge reads
	// the expanded blocks back from the staging area.
	for a.used[dim]+growth > a.shape[dim] {
		expIO, err := a.expand(dim)
		if err != nil {
			a.rollback(view, shapeBefore, usedBefore)
			return st, fmt.Errorf("appender: expansion failed: %w", err)
		}
		st.Expansions++
		st.ExpansionIO = st.ExpansionIO.Add(expIO)
	}
	// Merge the group as the one contiguous region it is.
	mergeBefore := a.counting.Stats()
	if err := a.merge(dim, slabs, growth); err != nil {
		a.rollback(view, shapeBefore, usedBefore)
		return st, err
	}
	// One group = one atomic batch on transactional backings.
	if err := a.commitRetry(); err != nil {
		if storage.IsTransient(err) {
			// Retries exhausted with the journal possibly sealed: the group
			// may replay on reopen. Refuse further work.
			err = fmt.Errorf("%w: %v", ErrInDoubt, err)
			a.poisoned = err
			return st, err
		}
		// Non-transient commit failures (simulated power cut, corruption,
		// full medium) fail before the journal seals or are not retryable;
		// roll the group back and stay honest about the state.
		a.rollback(view, shapeBefore, usedBefore)
		return st, err
	}
	st.Slabs = len(slabs)
	st.MergeIO = a.counting.Stats().Sub(mergeBefore)
	a.expansionTotal = a.expansionTotal.Add(st.ExpansionIO)
	a.mergeTotal = a.mergeTotal.Add(st.MergeIO)
	return st, nil
}

// merge folds the group's slabs — growth cells along dim in all, validated
// and fitting the domain — into the staged transform as ONE chunk in the
// sense of Result 1: the region [used, used+growth) is cut into dyadic runs
// once, however many slabs it came in, each run is gathered from the slabs
// it spans, transformed and SHIFT-SPLIT into one bucket set, and the set
// meets the store in one vectored read and one vectored write. Every tile
// on the runs' shared path to the root is therefore read and written once
// per group, not once per slab. It advances the frontier and does not
// commit.
func (a *Appender) merge(dim int, slabs []*ndarray.Array, growth int) error {
	d := len(a.shape)
	start := a.used[dim]
	first := slabs[0]
	// Row-major cells split as [outer][along dim][inner]; every slab and
	// every run buffer shares outer and inner (the cross extents).
	outer, inner := 1, 1
	for t := 0; t < dim; t++ {
		outer *= first.Extent(t)
	}
	for t := dim + 1; t < d; t++ {
		inner *= first.Extent(t)
	}
	runs := dyadic.Decompose(start, start+growth)
	tiling := a.store.Tiling()
	if a.set == nil {
		a.set = tile.NewBucketSet(tiling.BlockSize())
		a.ws = wavelet.NewScratch()
	}
	defer a.set.Reset()
	shape := first.Shape()
	for _, iv := range runs {
		n := iv.Len()
		if size := outer * n * inner; cap(a.cells) < size {
			a.cells = make([]float64, size)
		} else {
			a.cells = a.cells[:size]
		}
		// Gather the run [lo, hi) — group coordinates — from the slabs it
		// spans, the slab at hand covering [at, at+w).
		lo, hi := iv.Start()-start, iv.Start()-start+n
		at := 0
		for _, slab := range slabs {
			w := slab.Extent(dim)
			from, to := max(lo, at), min(hi, at+w)
			for o := 0; from < to && o < outer; o++ {
				copy(a.cells[(o*n+from-lo)*inner:(o*n+to-lo)*inner],
					slab.Data()[(o*w+from-at)*inner:(o*w+to-at)*inner])
			}
			at += w
		}
		block := make(dyadic.Range, d)
		shape[dim] = n
		for t := range block {
			block[t] = dyadic.NewInterval(bitutil.Log2(shape[t]), 0)
		}
		block[dim] = iv
		bHat := ndarray.FromSlice(a.cells, shape...)
		wavelet.TransformStandardInPlace(bHat, a.ws)
		tile.AccumulateEmbedStandard(tiling, a.shape, block, bHat, a.set)
	}
	if err := a.store.ApplyBuckets(a.set.Buckets()); err != nil {
		return err
	}
	a.used[dim] += growth
	for t := 0; t < d; t++ {
		if t != dim && a.used[t] == 0 {
			a.used[t] = first.Extent(t)
		}
	}
	return nil
}

// commitRetry seals the staged group, retrying while the failure is a
// transient media fault (Durable keeps the staged writes pending across a
// failed Commit, so re-driving it is safe). Corruption, space exhaustion,
// and unknown-class errors (power cuts, closed stores) are never retried.
func (a *Appender) commitRetry() error {
	backoff := time.Millisecond
	var err error
	for attempt := 0; attempt < 6; attempt++ {
		if err = a.counting.Commit(); err == nil {
			return nil
		}
		if !storage.IsTransient(err) {
			return err
		}
		time.Sleep(backoff)
		backoff *= 2
	}
	return err
}

// rollback discards the staged (uncommitted) writes and restores the
// domain, its store view and the frontier after a failed batch.
// Transactional backings expose Rollback; without one the staged writes
// already reached the device and the appender must be poisoned instead.
func (a *Appender) rollback(view *tile.Store, shape, used []int) {
	a.store = view
	copy(a.shape, shape)
	copy(a.used, used)
	if storage.RollbackIfAble(a.base) {
		return
	}
	a.poisoned = errors.New("appender: batch failed on a non-transactional backing; stored transform is partial")
}

// expand doubles the domain along dim in place and stages its writes
// without committing them: the old tree becomes the left subtree of a new
// root, every detail keeps its level and translation, and the old overall
// average along dim SPLITs into the new average and the new root detail
// (Figure 10).
//
// Both tilings are cross products of per-dimension tilings and only dim's
// changes, so one table along dim — old (tile, offset) to new (tile,
// offset) — relocates whole rows of a block at a time. It reads and
// rewrites exactly the blocks whose id or contents change. Along the
// outermost dimension of a growth-order tiling that is the top band times
// the cross-section: the old top tiles, rewritten with their slots one
// level down under the new root — or, when the top band was full, left as
// they are (slot 0 keeping the old average, now that subtree's redundant
// scaling coefficient) beside one new top tile per fiber. Growing any other
// dimension renames blocks, and the same relocation moves each of them.
func (a *Appender) expand(dim int) (storage.Stats, error) {
	before := a.counting.Stats()
	oldTiling := a.store.Tiling().(*tile.Standard)
	newTiling := oldTiling.Grown(dim)
	od, nd := oldTiling.Dim(dim), newTiling.Dim(dim)
	nOld := od.Levels()
	edge := od.BlockSize() // slots per tile along one dimension

	// to[tile*edge+offset] along dim in the old tiling is tile*edge+offset
	// in the new one; -1 marks slots that hold no coefficient. A tile
	// changes when one of its coefficients changes tile or offset.
	to := make([]int, od.NumBlocks()*edge)
	for i := range to {
		to[i] = -1
	}
	changes := make([]bool, od.NumBlocks())
	for idx := 1; idx < 1<<uint(nOld); idx++ {
		j, k := haar.LevelPos(nOld, idx)
		at := locate1D(od, idx, edge)
		to[at] = locate1D(nd, haar.Index(nOld+1, j, k), edge)
		changes[at/edge] = changes[at/edge] || to[at] != at
	}
	// The old average is the one source with several targets: half to the
	// new average, half to the new root detail — and, when the old top tile
	// becomes an ordinary one, unchanged into its scaling slot.
	avgAt := locate1D(od, 0, edge)
	changes[avgAt/edge] = true
	avgTo := []target{{locate1D(nd, 0, edge), 0.5}, {locate1D(nd, 1, edge), 0.5}}
	if nOld > 0 && nOld%a.b == 0 { // the top band was full
		avgTo = append(avgTo, target{to[locate1D(od, 1, edge)] - 1, 1})
	}

	// A block whose tile along dim does not change and whose id stays is
	// neither read nor written; every other one is read once, in ascending
	// id order.
	var moved []int
	for blk := 0; blk < oldTiling.NumBlocks(); blk++ {
		if changes[blk/oldTiling.Stride(dim)%od.NumBlocks()] || renamed(oldTiling, newTiling, blk) != blk {
			moved = append(moved, blk)
		}
	}
	oldData, err := a.store.ReadTiles(moved)
	if err != nil {
		return storage.Stats{}, err
	}

	// A slot is (shi*edge + offset)*row + slo, with shi ranging over the
	// dimensions before dim and slo over those after it.
	row := 1
	for t := dim + 1; t < len(a.shape); t++ {
		row *= edge
	}
	rowsAbove := oldTiling.BlockSize() / (edge * row)
	var out relocation
	var one [1]target
	for i, blk := range moved {
		data := oldData[i]
		tileOld := blk / oldTiling.Stride(dim) % od.NumBlocks()
		// The block's id without its tile along dim, in the new radix.
		rest := renamed(oldTiling, newTiling, blk) - tileOld*newTiling.Stride(dim)
		for shi := 0; shi < rowsAbove; shi++ {
			for off := 0; off < edge; off++ {
				targets := avgTo
				if at := tileOld*edge + off; at != avgAt {
					if to[at] < 0 {
						continue
					}
					one[0] = target{to[at], 1}
					targets = one[:]
				}
				src := data[(shi*edge+off)*row:][:row]
				for _, tg := range targets {
					out.move(src, tg.w, rest+tg.at/edge*newTiling.Stride(dim), (shi*edge+tg.at%edge)*row, newTiling.BlockSize())
				}
			}
		}
	}
	blks, newData, err := out.changed(moved, oldData, oldTiling.NumBlocks(), newTiling.BlockSize())
	if err != nil {
		return storage.Stats{}, err
	}
	if err := a.store.WriteTiles(blks, newData); err != nil {
		return storage.Stats{}, err
	}
	a.shape[dim] *= 2
	if err := a.retile(newTiling); err != nil {
		return storage.Stats{}, err
	}
	return a.counting.Stats().Sub(before), nil
}

// target is one destination of a coefficient along the expanding
// dimension: tile*edge+offset in the new tiling, and the weight it lands
// with.
type target struct {
	at int
	w  float64
}

// renamed returns the id block gets in the new tiling, whose per-dimension
// tile ids are the old ones (growth order keeps them) under new strides.
func renamed(oldT, newT *tile.Standard, block int) int {
	id := 0
	for t := 0; t < oldT.Dims(); t++ {
		id += block / oldT.Stride(t) % oldT.Dim(t).NumBlocks() * newT.Stride(t)
	}
	return id
}

// relocation gathers the contents of the destination blocks of an
// expansion, a block materializing when the first non-zero value lands.
type relocation struct {
	index map[int]int // block id -> position in ids and data
	ids   []int
	data  [][]float64
}

// move stores src, scaled by w, at slot of block id.
func (r *relocation) move(src []float64, w float64, id, slot, blockSize int) {
	var dst []float64
	for i, v := range src {
		if v == 0 {
			continue
		}
		if dst == nil {
			at, ok := r.index[id]
			if !ok {
				if r.index == nil {
					r.index = make(map[int]int)
				}
				at = len(r.ids)
				r.index[id] = at
				r.ids = append(r.ids, id)
				r.data = append(r.data, make([]float64, blockSize))
			}
			dst = r.data[at][slot : slot+len(src)]
		}
		dst[i] = v * w
	}
}

// changed lists, in ascending id order, the blocks whose contents differ
// from what the store holds: destinations whose new contents are not the
// old ones, and moved-away blocks nothing lands on, which are zeroed. A
// destination inside the old domain was itself read (moved), so its old
// contents are known; beyond it the store holds zeros.
func (r *relocation) changed(moved []int, oldData [][]float64, oldBlocks, blockSize int) ([]int, [][]float64, error) {
	ids := slices.Clone(moved)
	for _, id := range r.ids {
		if _, ok := slices.BinarySearch(moved, id); !ok {
			if id < oldBlocks {
				return nil, nil, fmt.Errorf("appender: expansion lands on block %d, which it did not read", id)
			}
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	var blks []int
	var data [][]float64
	var zero []float64
	for _, id := range ids {
		var now, was []float64
		if at, ok := r.index[id]; ok {
			now = r.data[at]
		}
		if i, ok := slices.BinarySearch(moved, id); ok {
			was = oldData[i]
		}
		if sameBlock(now, was) {
			continue
		}
		if now == nil {
			if zero == nil {
				zero = make([]float64, blockSize)
			}
			now = zero
		}
		blks = append(blks, id)
		data = append(data, now)
	}
	return blks, data, nil
}

// sameBlock compares two block contents, nil standing for all zeros.
func sameBlock(x, y []float64) bool {
	if x == nil {
		x, y = y, x
	}
	for i, v := range x {
		if y == nil && v != 0 || y != nil && v != y[i] {
			return false
		}
	}
	return true
}

// locate1D is t.Locate1D(idx) as one number, tile*edge + offset.
func locate1D(t *tile.OneD, idx, edge int) int {
	b, s := t.Locate1D(idx)
	return b*edge + s
}

// Reconstruct reads the whole transform back and inverts it, returning the
// current contents of the domain (appended data plus zero padding).
func (a *Appender) Reconstruct() (*ndarray.Array, error) {
	hat := ndarray.New(a.shape...)
	var err error
	hat.Each(func(coords []int, _ float64) {
		if err != nil {
			return
		}
		var v float64
		v, err = a.store.Get(coords)
		if err == nil {
			hat.Set(v, coords...)
		}
	})
	if err != nil {
		return nil, err
	}
	return wavelet.InverseStandard(hat), nil
}
