// Package appender implements appending to wavelet-decomposed data (paper
// §5.2): new data that enlarges the domain of one or more dimensions is
// folded into an existing standard-form transform without reconstructing the
// original data.
//
// Appending has two phases. When the incoming slab no longer fits the
// transformed domain, the domain is expanded: the dimension's wavelet tree
// grows one level (Figure 10), which re-indexes (SHIFTs) every coefficient
// and SPLITs the old overall average into the new root detail and average —
// an O(N^d) pass that shows up as the jumps in Figure 13. Otherwise the slab
// is transformed in memory and merged with SHIFT-SPLIT at a cost of
// O(M + log(N/M)) coefficients per dyadic piece.
package appender

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/shiftsplit/shiftsplit/internal/bitutil"
	"github.com/shiftsplit/shiftsplit/internal/dyadic"
	"github.com/shiftsplit/shiftsplit/internal/haar"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/parallel"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
	"github.com/shiftsplit/shiftsplit/internal/wavelet"
)

// Backing provides the block store for each of the appender's successive
// domain generations (every expansion rebuilds the store, possibly with a
// new block size). Returning a transactional store (storage.Durable) makes
// each append and each expansion an atomic batch: the appender commits at
// those boundaries.
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
	b           int // tile parameter: blocks hold 2^(b*d) coefficients
	shape       []int
	used        []int
	store       *tile.Store
	base        storage.BlockStore // current generation's device (rollback seam)
	counting    *storage.Counting
	accumulated storage.Stats
	backing     Backing
	generation  int
	opts        parallel.Options

	// Separate attributions of the lifetime I/O (satellite of the ingest
	// work: fsync-amortization claims need slab-write cost unpolluted by
	// expansion cost). TotalIO remains the device truth; these two split
	// the portion spent inside Append calls.
	expansionTotal storage.Stats
	mergeTotal     storage.Stats

	// poisoned is set when an error left the on-store state unreliable
	// (failed expansion, unrecoverable commit, non-transactional backing
	// with a half-applied batch). Every later append fails with it.
	poisoned error

	// scratch pools the per-run transform state across groups (holds
	// *mergeScratch); set is the group's delta buckets, recycled by Reset,
	// so steady-state appends stop allocating run- and tile-sized buffers.
	scratch sync.Pool
	set     *tile.BucketSet
}

// mergeScratch is one worker's reusable transform state: the buffer a
// dyadic run's cells are gathered into and transformed in, and the wavelet
// working buffers.
type mergeScratch struct {
	ws    *wavelet.Scratch
	cells []float64
}

// SetOptions configures the worker pool used to gather and transform the
// dyadic runs of each group. Bucketing stays sequential in run order and the
// buckets meet the store in one ascending-id batch, so the floating-point
// sums and the physical write sequence — and with it the crash-campaign
// behavior of durable backings — are identical for every worker count.
func (a *Appender) SetOptions(opts parallel.Options) { a.opts = opts }

// AppendStats reports the cost of one Append or AppendBatch call.
// ExpansionIO and MergeIO are disjoint windows: expansion covers the
// domain-doubling passes (old-generation reads plus the rebuilt store's
// writes, syncs, and commits), merge covers transforming and applying the
// slabs plus the single group commit that seals them.
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
	a := &Appender{
		b:       b,
		shape:   append([]int(nil), shape...),
		used:    make([]int, len(shape)),
		backing: backing,
	}
	if err := a.rebuildStore(); err != nil {
		return nil, err
	}
	return a, nil
}

func (a *Appender) rebuildStore() error {
	ns := make([]int, len(a.shape))
	for i, s := range a.shape {
		ns[i] = bitutil.Log2(s)
	}
	tiling := tile.NewStandard(ns, a.b)
	var base storage.BlockStore
	if a.backing != nil {
		var err error
		if base, err = a.backing(a.generation, tiling.BlockSize()); err != nil {
			return err
		}
	} else {
		base = storage.NewMemStore(tiling.BlockSize())
	}
	a.generation++
	a.base = base
	a.counting = storage.NewCounting(base)
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
func (a *Appender) TotalIO() storage.Stats {
	return a.accumulated.Add(a.counting.Stats())
}

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
// order, as ONE atomic batch and one in-memory chunk: all needed domain
// expansions run first, then the contiguous region the slabs cover is
// transformed and SHIFT-SPLIT-merged into the staged transform (see merge),
// and a single Commit seals the group. On a transactional
// backing the whole group therefore costs one journal group — the fsync
// amortization the ingest front door is built on — and a crash recovers
// to either all slabs applied or none.
//
// Error semantics: validation errors leave the appender untouched. A
// failure before the final commit rolls the staged writes and the
// frontier back (the group is known not committed) when the backing
// supports rollback; otherwise the appender is poisoned. A final-commit
// failure is retried while the fault looks transient; if it does not
// clear, the group's outcome is unknowable in-process and the error wraps
// ErrInDoubt.
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
	// Expand until the whole group fits, BEFORE any slab is staged. Each
	// expansion commits on its own (it rebuilds the store on a new
	// generation), so running them first keeps the group itself a single
	// journal group: a crash between expansion and group commit leaves an
	// enlarged domain holding exactly the pre-batch data — a legal
	// pre-batch state — never a partial group.
	for a.used[dim]+growth > a.shape[dim] {
		expIO, err := a.expand(dim)
		if err != nil {
			a.poisoned = fmt.Errorf("appender: expansion failed: %w", err)
			return st, err
		}
		st.Expansions++
		st.ExpansionIO = st.ExpansionIO.Add(expIO)
	}
	// Merge the group as the one contiguous region it is.
	mergeBefore := a.counting.Stats()
	usedBefore := append([]int(nil), a.used...)
	if err := a.merge(dim, slabs, growth); err != nil {
		a.rollback(usedBefore)
		return st, err
	}
	// One group = one atomic batch on transactional backings.
	if err := a.commitRetry(); err != nil {
		if storage.Classify(err) == storage.ClassTransient {
			// Retries exhausted with the journal possibly sealed: the group
			// may replay on reopen. Refuse further work.
			err = fmt.Errorf("%w: %v", ErrInDoubt, err)
			a.poisoned = err
			return st, err
		}
		// Non-transient commit failures (simulated power cut, corruption,
		// full medium) fail before the journal seals or are not retryable;
		// roll the group back and stay honest about the state.
		a.rollback(usedBefore)
		return st, err
	}
	st.Slabs = len(slabs)
	st.MergeIO = a.counting.Stats().Sub(mergeBefore)
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
	}
	defer a.set.Reset()
	type runResult struct {
		sc    *mergeScratch
		block dyadic.Range
		bHat  *ndarray.Array
	}
	// The runs' gathers and transforms fan out to the worker pool;
	// bucketing happens in run order on this goroutine, so the
	// floating-point sums do not depend on the worker count.
	err := parallel.Run(len(runs), a.opts,
		func(seq int) (runResult, error) {
			iv := runs[seq]
			n := iv.Len()
			sc, ok := a.scratch.Get().(*mergeScratch)
			if !ok {
				sc = &mergeScratch{ws: wavelet.NewScratch()}
			}
			if size := outer * n * inner; cap(sc.cells) < size {
				sc.cells = make([]float64, size)
			} else {
				sc.cells = sc.cells[:size]
			}
			// Gather the run [lo, hi) — group coordinates — from the slabs
			// it spans, the slab at hand covering [at, at+w).
			lo, hi := iv.Start()-start, iv.Start()-start+n
			at := 0
			for _, slab := range slabs {
				w := slab.Extent(dim)
				from, to := max(lo, at), min(hi, at+w)
				for o := 0; from < to && o < outer; o++ {
					copy(sc.cells[(o*n+from-lo)*inner:(o*n+to-lo)*inner],
						slab.Data()[(o*w+from-at)*inner:(o*w+to-at)*inner])
				}
				at += w
			}
			shape := first.Shape()
			block := make(dyadic.Range, d)
			shape[dim] = n
			for t := range block {
				block[t] = dyadic.NewInterval(bitutil.Log2(shape[t]), 0)
			}
			block[dim] = iv
			bHat := ndarray.FromSlice(sc.cells, shape...)
			wavelet.TransformStandardInPlace(bHat, sc.ws)
			return runResult{sc: sc, block: block, bHat: bHat}, nil
		},
		func(seq int, res runResult) error {
			tile.AccumulateEmbedStandard(tiling, a.shape, res.block, res.bHat, a.set)
			a.scratch.Put(res.sc)
			return nil
		})
	if err != nil {
		return err
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
		if err = a.store.Commit(); err == nil {
			return nil
		}
		if storage.Classify(err) != storage.ClassTransient {
			return err
		}
		time.Sleep(backoff)
		backoff *= 2
	}
	return err
}

// rollback discards the staged (uncommitted) writes and restores the
// frontier after a failed batch. Transactional backings expose Rollback;
// without one the staged writes already reached the device and the
// appender must be poisoned instead.
func (a *Appender) rollback(used []int) {
	copy(a.used, used)
	type rollbacker interface{ Rollback() }
	if rb, ok := a.base.(rollbacker); ok {
		rb.Rollback()
		return
	}
	a.poisoned = errors.New("appender: batch failed on a non-transactional backing; stored transform is partial")
}

// expand doubles the domain along dim: every coefficient of the old
// transform SHIFTs to its position in the doubled tree, and the old overall
// average (along dim) SPLITs into the new root detail and the new average
// (Figure 10).
//
// Both tilings are cross products of per-dimension tilings and only dim's
// changes, so a coefficient keeps its tile and in-tile offset in every
// other dimension. One table along dim — old (tile, offset) to new (tile,
// offset) — therefore relocates whole rows of a block at a time: old blocks
// are read once, in ascending id order, and each row of slots sharing its
// position along dim moves to one row of one new block.
func (a *Appender) expand(dim int) (storage.Stats, error) {
	oldStore, oldCounting := a.store, a.counting
	oldTiling := oldStore.Tiling().(*tile.Standard)
	nOld := bitutil.Log2(a.shape[dim])
	preOld := oldCounting.Stats()

	a.shape[dim] *= 2
	if err := a.rebuildStore(); err != nil {
		return storage.Stats{}, err
	}
	newTiling := a.store.Tiling().(*tile.Standard)
	od, nd := oldTiling.Dim(dim), newTiling.Dim(dim)
	edge := od.BlockSize() // slots per tile along one dimension

	// to[tile*edge+offset] along dim in the old tiling is tile*edge+offset
	// in the new one; -1 marks slots that hold no coefficient. The old
	// average (index 0) is the one source with two targets.
	to := make([]int, od.NumBlocks()*edge)
	for i := range to {
		to[i] = -1
	}
	for idx := 1; idx < 1<<uint(nOld); idx++ {
		j, k := haar.LevelPos(nOld, idx)
		to[locate1D(od, idx, edge)] = locate1D(nd, haar.Index(nOld+1, j, k), edge)
	}
	avgAt, avgTo := locate1D(od, 0, edge), [2]int{locate1D(nd, 0, edge), locate1D(nd, 1, edge)}

	// A block id is (hi*tiles(dim) + tile)*lo_n + lo and a slot is
	// (shi*edge + offset)*row + slo, with hi/shi ranging over the
	// dimensions before dim and lo/slo over those after it.
	loBlocks, row := 1, 1
	for t := dim + 1; t < len(a.shape); t++ {
		loBlocks *= oldTiling.Dim(t).NumBlocks()
		row *= edge
	}
	rowsAbove := oldTiling.BlockSize() / (edge * row)

	oldBlks := make([]int, oldTiling.NumBlocks())
	for i := range oldBlks {
		oldBlks[i] = i
	}
	oldData, err := oldStore.ReadTiles(oldBlks)
	if err != nil {
		return storage.Stats{}, err
	}
	pending := make([][]float64, newTiling.NumBlocks()) // nil until a non-zero value lands
	written := 0
	move := func(src []float64, scale float64, blk, slot int) {
		var dst []float64
		for i, v := range src {
			if v == 0 {
				continue
			}
			if dst == nil {
				if pending[blk] == nil {
					pending[blk] = make([]float64, newTiling.BlockSize())
					written++
				}
				dst = pending[blk][slot : slot+len(src)]
			}
			dst[i] = v * scale
		}
	}
	for blk, data := range oldData {
		lo := blk % loBlocks
		tileOld := blk / loBlocks % od.NumBlocks()
		hi := blk / loBlocks / od.NumBlocks()
		newBlk := func(tileNew int) int { return (hi*nd.NumBlocks()+tileNew)*loBlocks + lo }
		for shi := 0; shi < rowsAbove; shi++ {
			for off := 0; off < edge; off++ {
				src := data[(shi*edge+off)*row:][:row]
				at := tileOld*edge + off
				if at == avgAt {
					// The old average splits: half to the new average, half to
					// the new root detail (the old data is the left subtree).
					for _, t := range avgTo {
						move(src, 0.5, newBlk(t/edge), (shi*edge+t%edge)*row)
					}
				} else if t := to[at]; t >= 0 {
					move(src, 1, newBlk(t/edge), (shi*edge+t%edge)*row)
				}
			}
		}
	}
	blks := make([]int, 0, written)
	newData := make([][]float64, 0, written)
	for blk, data := range pending {
		if data != nil {
			blks = append(blks, blk)
			newData = append(newData, data)
		}
	}
	if err := a.store.WriteTiles(blks, newData); err != nil {
		return storage.Stats{}, err
	}
	// The expanded transform is one atomic batch; only after it is durable
	// may the previous generation be retired.
	if err := a.store.Commit(); err != nil {
		return storage.Stats{}, err
	}
	// Fold the old store's lifetime I/O into the running totals and report
	// this expansion's own cost: the old generation's reads since the
	// expansion began plus everything on the fresh generation's counter —
	// the re-indexed writes and the expansion batch's sync/commit. Keeping
	// the full cost out of MergeIO is what lets stats alone verify the
	// fsync-amortization claims.
	oldStats := oldCounting.Stats()
	a.accumulated = a.accumulated.Add(oldStats)
	cost := oldStats.Sub(preOld).Add(a.counting.Stats())
	a.expansionTotal = a.expansionTotal.Add(cost)
	return cost, oldStore.Close()
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
