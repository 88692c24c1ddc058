package shiftsplit

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/shiftsplit/shiftsplit/internal/bitutil"
	"github.com/shiftsplit/shiftsplit/internal/cache"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
)

// IOStats reports block-level I/O on a Store, plus the durability barriers
// (syncs) and transactional batch seals (commits) the stack issued.
type IOStats struct {
	Reads   int64
	Writes  int64
	Syncs   int64
	Commits int64
	// MappedReads is how many of the Reads were served zero-syscall from
	// the data file's memory mapping: every read of a file-backed store's
	// data. A subset of Reads, not an addition to Total.
	MappedReads int64
}

// Total returns Reads + Writes (barriers move no blocks).
func (s IOStats) Total() int64 { return s.Reads + s.Writes }

// StoreOptions configures CreateStore.
type StoreOptions struct {
	// Shape of the transformed domain; every extent must be a power of two,
	// and the non-standard form requires a cubic shape.
	Shape []int
	// Form of decomposition (Standard or NonStandard).
	Form Form
	// TileBits is the per-dimension tile edge exponent b: blocks hold
	// 2^(b*dims) coefficients under the paper's optimal tiling (§3).
	// Defaults to 2.
	TileBits int
	// Path, when non-empty, backs the store with a real file; otherwise the
	// store is in memory.
	Path string
	// Mapped is accepted and ignored: every file-backed store reads its
	// data through a shared read-only memory mapping (DESIGN §14). It
	// stays only because the benchmark module (bench/) sets it.
	Mapped bool
	// Durable layers crash safety under the store and implies Versioned:
	// every block is framed with a 64-bit check word + epoch so torn writes
	// and bit rot are detected on read, and every write (the whole-domain
	// Materialize and TransformChunked, which replace every block, and the
	// incremental MergeBlock, ClearBlock and Scale) builds the next epoch
	// and commits it with the epoch layer's shadow-paged flip — a crash
	// leaves either the pre- or the post-operation transform, never a
	// hybrid. A write that fails before its commit is rolled back here and
	// on a versioned stack (a plain store keeps the prefix it wrote; a
	// whole-domain write run again replaces it); one whose commit fails
	// stays in doubt until the next write, Flush, Sync or Close commits it
	// again. File-backed durable stores use a different on-disk layout
	// (framed blocks, and a ".wal" sidecar that stays empty) and are not
	// interchangeable with non-durable files; one written in an older
	// durable layout is upgraded when it is opened.
	Durable bool
	// Versioned interposes the MVCC epoch layer (storage.Versioned) between
	// the tile map and the physical store: every maintenance batch builds
	// the next epoch in freshly allocated physical blocks and commits it
	// with an atomic flip, while queries pin the current epoch through a
	// refcounted Snapshot — so reads never observe a mid-batch state and
	// never contend with writers. The flip is shadow-paged: the batch and
	// its table pages go to blocks no committed epoch references, and the
	// new superblock goes into the alternate of two slots between two
	// syncs, so on a durable store a crash recovers to exactly the old or
	// exactly the new epoch with nothing journaled. Versioned stores use a
	// different on-disk layout (two superblock slots ahead of the data
	// blocks and table pages) and are not interchangeable with
	// non-versioned files. Durable sets it; it is a choice only for a
	// store that is not durable.
	Versioned bool
	// FaultPlan, when non-nil, routes the physical writes of a durable
	// store through a storage.CrashStore governed by the plan — the
	// power-cut testing facility behind the crash campaign. It is ignored
	// unless Durable is set, and is not persisted in store metadata.
	FaultPlan *storage.CrashPlan
	// BaseWrap, when non-nil, wraps the raw block device (below the
	// checksum layer of a durable store) — the seam the chaos harness uses
	// to slide a storage.Faulty under a real store. Not persisted in store
	// metadata.
	BaseWrap func(storage.BlockStore) storage.BlockStore
}

// MaintainOptions tunes the worker pool behind TransformChunked. The zero
// value selects one transform worker per CPU. Results are bit-identical,
// I/O counters equal and the physical write sequence the same for every
// setting — parallelism changes wall-clock time only.
type MaintainOptions struct {
	// Workers is the number of goroutines transforming chunks; <= 0 selects
	// runtime.GOMAXPROCS(0), and 1 runs fully sequentially.
	Workers int
}

// Store is a wavelet transform resident on tiled block storage, with every
// block read and write counted. It is the disk-facing half of the library:
// bulk transformation, queries, partial reconstruction, and SHIFT-SPLIT
// block merges all run against it.
//
// The query read path (Point, Points, RangeSum, ProgressiveRangeSum,
// ExtractBlock, ExtractBox, ReadTransform) is safe for concurrent use on
// stores whose block device is — in-memory stores, plain file stores, and
// anything opened with OpenServing — as every query works from per-call
// buffers. Writes (Materialize, TransformChunked, MergeBlock, ClearBlock,
// Scale) are safe to call from several goroutines: they serialize, each
// committing itself before the next begins. On a versioned store whose
// read path is safe for concurrent use, queries run beside a write and
// never see part of one: they read the last committed epoch until the
// write's flip. On any other store a query must not overlap a write.
type Store struct {
	opts     StoreOptions
	tiling   tile.Tiling
	counting *storage.Counting
	cache    *cache.Sharded
	durable  *storage.Durable
	// replayed counts the blocks the upgrade at open replayed from the old
	// layout's journal (see upgrade.go); the Durable then has replayed none.
	replayed int
	// versioned, when non-nil, is the MVCC epoch layer the tile store sits
	// on: queries pin epochs through it, maintenance builds the next epoch
	// behind it (see WithSnapshot).
	versioned *storage.Versioned
	// store is the tile view of the whole stack: writes reach it only
	// through write, queries only through WithSnapshot.
	store *tile.Store
	// writeMu serializes writes (see write). unsealed, which it guards,
	// records that the last commit failed and left its batch staged.
	writeMu  sync.Mutex
	unsealed bool
	// blank, also guarded by writeMu, reports a handle CreateStore made
	// that no write has run on: every block still reads as zeros.
	blank bool
	// mergeSets pools the *tile.BucketSet MergeBlock buckets an embedding
	// into, so a steady stream of merges reuses the delta slices. A set goes
	// back after its write commits: back in the pool during the commit's
	// allocations, it is dropped by a collection more often.
	mergeSets sync.Pool
	// slots reports whether every block's scaling slots are valid, so
	// points read one block. It is fixed for the life of the handle: true
	// on a created store, the sidecar's "materialized" key on an opened one.
	// Every maintenance path keeps valid slots valid, committing them in
	// the same batch and epoch as the coefficients; a store last maintained
	// by an older binary has stale slots and keeps the root path until a
	// whole-domain write rewrites them and it is reopened.
	slots bool
	// slotsOnMedia is what the sidecar records (guarded by metaMu): slots,
	// or true once a whole-domain write has rewritten every slot.
	slotsOnMedia bool

	// scrubSafe reports that the Counting, where commits (on stores without
	// the epoch layer), scrubs and repairs enter below the cache and breaker,
	// may be walked concurrently with queries (see assemble).
	scrubSafe bool
	// mapped is the raw data device's mapped-read counter when the device
	// is a memory mapping; mappedBase is its value at the last ResetStats.
	mapped     storage.MappedReadsReporter
	mappedBase atomic.Int64

	// Robustness plumbing (see robust.go): the quarantine registry tracks
	// blocks known corrupt, degraded serves them as flagged zeros, and the
	// breaker sheds load off a dead backend.
	quarantine *storage.Quarantine
	degraded   *storage.Degraded
	breaker    *storage.Breaker
	metaMu     sync.Mutex
	scrubMu    sync.Mutex
	scrubber   *storage.Scrubber
	scrubStop  func()
	scrubDone  chan struct{}
}

// ErrQuarantined is returned by incremental maintenance (MergeBlock,
// ClearBlock, Scale) while any block is quarantined: those operations
// read-modify-write the stored transform, and folding a zero-filled
// degraded read back into the medium would silently destroy data. The call
// changes nothing. The whole-domain writes, Materialize and
// TransformChunked, are exempt: they never read what the store held,
// rewrite every block and heal the store.
var ErrQuarantined = errors.New("shiftsplit: store has quarantined blocks; repair or re-materialize first")

// CreateStore creates an empty tiled store for a transform of the given
// shape and form.
func CreateStore(opts StoreOptions) (*Store, error) {
	if len(opts.Shape) == 0 {
		return nil, fmt.Errorf("shiftsplit: empty shape")
	}
	if opts.TileBits == 0 {
		opts.TileBits = 2
	}
	if opts.TileBits < 1 {
		return nil, fmt.Errorf("shiftsplit: tile bits %d", opts.TileBits)
	}
	for _, s := range opts.Shape {
		if !bitutil.IsPow2(s) {
			return nil, fmt.Errorf("shiftsplit: extent %d is not a power of two", s)
		}
	}
	switch opts.Form {
	case Standard:
	case NonStandard:
		for _, s := range opts.Shape[1:] {
			if s != opts.Shape[0] {
				return nil, fmt.Errorf("shiftsplit: non-standard form requires a cubic shape, got %v", opts.Shape)
			}
		}
	default:
		return nil, fmt.Errorf("shiftsplit: unknown form %v", opts.Form)
	}
	opts.Versioned = opts.Versioned || opts.Durable
	return assemble(stackSpec{
		meta: storeMeta{
			Shape: opts.Shape, Form: opts.Form.String(), TileBits: opts.TileBits,
			Materialized: true, // an empty store's slots are valid: all zero
			Durable:      opts.Durable, Versioned: opts.Versioned,
		},
		path: opts.Path, create: true,
		plan: opts.FaultPlan, wrap: opts.BaseWrap,
	})
}

// Shape returns the transformed domain extents.
func (s *Store) Shape() []int { return append([]int(nil), s.opts.Shape...) }

// Form returns the decomposition form.
func (s *Store) Form() Form { return s.opts.Form }

// BlockSize returns the number of coefficients per storage block.
func (s *Store) BlockSize() int { return s.tiling.BlockSize() }

// NumBlocks returns the number of blocks covering the domain.
func (s *Store) NumBlocks() int { return s.tiling.NumBlocks() }

// Stats returns the accumulated block I/O counters.
func (s *Store) Stats() IOStats {
	st := s.counting.Stats()
	return IOStats{Reads: st.Reads, Writes: st.Writes, Syncs: st.Syncs, Commits: st.Commits, MappedReads: s.mappedReads() - s.mappedBase.Load()}
}

// ResetStats zeroes the I/O counters.
func (s *Store) ResetStats() {
	s.counting.Reset()
	s.mappedBase.Store(s.mappedReads())
}

// mappedReads is the device's cumulative mapped-read count.
func (s *Store) mappedReads() int64 {
	if s.mapped == nil {
		return 0
	}
	return s.mapped.MappedReads()
}

// Flush commits again a batch whose commit failed: every write commits
// itself, so on a healthy store there is nothing left to seal.
func (s *Store) Flush() error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return s.seal()
}

// Durable reports whether the store runs on the crash-safe storage layer.
func (s *Store) Durable() bool { return s.durable != nil }

// Recovered reports how many blocks were rolled forward from the journal
// when the store was opened (by the upgrade, on a store it rewrote); ok is
// false if no interrupted batch was found.
func (s *Store) Recovered() (blocks int, ok bool) {
	switch {
	case s.replayed > 0:
		return s.replayed, true
	case s.durable == nil:
		return 0, false
	}
	return s.durable.Recovered()
}

// commit seals a batch at the layer that implements it: the epoch layer
// flips (syncing the device twice, and committing the Durable under it). On
// a plain device the commit is only counted.
func (s *Store) commit() error {
	if s.versioned == nil {
		return s.counting.Commit()
	}
	return s.versioned.Commit()
}

// seal commits the staged batch and records whether the commit left it
// staged. The caller holds writeMu.
func (s *Store) seal() error {
	err := s.commit()
	s.unsealed = err != nil
	return err
}

// rollback discards the building epoch, which reaches the Durable; a plain
// device keeps what was written. The building epoch's blocks are read past
// the cache, which holds committed physical blocks only.
func (s *Store) rollback() {
	if s.versioned != nil {
		s.versioned.Rollback()
	}
}

// write is the one path by which a public operation changes the stored
// transform. Under writeMu it refuses incremental maintenance while blocks
// are quarantined (a healing write rewrites every block), hands fn the only
// write-capable view of the stack, then rolls back what fn staged if fn
// fails or panics, else commits once. A failed commit is not rolled back:
// the journal may have sealed the batch, or the epoch's superblock reached
// the medium, so it stays staged until the next write seals it first, and a
// rollback discards only its own call's writes.
func (s *Store) write(heal bool, fn func(*tile.Store) error) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if s.unsealed {
		if err := s.seal(); err != nil {
			return err
		}
	}
	if !heal {
		if err := s.maintenanceGuard(); err != nil {
			return err
		}
	}
	staged := true
	defer func() {
		if staged {
			s.rollback()
		}
	}()
	err := fn(s.store)
	s.blank = false
	if err != nil {
		return err
	}
	staged = false
	if err := s.seal(); err != nil {
		return err
	}
	if !heal {
		return nil
	}
	// Every frame is fresh and every slot valid: heal the registry, and let
	// a store opened with stale slots take the one-block path from its next
	// open. The epoch the write superseded holds the quarantined blocks, so
	// it is given up rather than kept as the fallback a scrub verifies.
	if s.quarantine != nil && s.quarantine.Len() > 0 {
		if s.versioned != nil {
			if err := s.versioned.GiveUpPrevious(); err != nil {
				return err
			}
		}
		s.quarantine.Replace(nil)
	}
	s.metaMu.Lock()
	s.slotsOnMedia = true
	s.metaMu.Unlock()
	return s.saveMeta()
}

// Close stops any background scrubber, flushes caches, and releases the
// underlying storage.
func (s *Store) Close() error {
	s.StopScrub()
	return s.store.Close()
}

// Materialize replaces the stored transform with a's, including the
// per-tile scaling coefficients that make single-block point queries
// possible. It is TransformChunked with one chunk that covers the domain,
// so it holds a, its transform and the whole layout in memory at once; use
// TransformChunked with a smaller chunk when a does not fit that budget.
func (s *Store) Materialize(a *Array) error {
	return s.replace(a, bits.Len(uint(slices.Max(s.opts.Shape)))-1, 1)
}

// TransformChunked replaces the stored transform with src's by the paper's
// I/O-efficient chunked transformation (Result 1 for the standard form;
// Result 2, with z-ordered chunks and an in-memory crest, for the
// non-standard form), using memory for one chunk of edge 2^chunkBits per
// dimension, clamped to each extent; 2^chunkBits may not exceed the largest
// extent. The per-tile scaling slots are written with the coefficients, at
// no extra block I/O. The store ends holding src's transform alone: the
// call reads no block it has not written itself, writes every block no
// chunk reaches as zeros (except on a handle CreateStore made that has not
// been written, whose blocks are zeros already), and, like Materialize,
// heals a store with quarantined blocks.
func (s *Store) TransformChunked(src *Array, chunkBits int) error {
	return s.TransformChunkedOpts(src, chunkBits, MaintainOptions{})
}

// TransformChunkedOpts is TransformChunked with an explicit worker-pool
// configuration: chunk transforms and SHIFT-SPLIT bucketing fan out to
// opts.Workers goroutines while the deltas are applied on the calling
// goroutine in chunk order, so the resulting transform is bit-identical,
// the I/O counters equal and the physical write sequence the same for
// every worker count.
func (s *Store) TransformChunkedOpts(src *Array, chunkBits int, opts MaintainOptions) error {
	return s.replace(src, chunkBits, opts.Workers)
}

// MergeBlock folds bHat (the transform of a block's contents, same form)
// into the stored transform — the disk-resident SHIFT-SPLIT batch update.
// The embedding is bucketed by destination tile with the flat kernels, the
// touched tiles' scaling slots take the change it makes to their root
// averages, and the buckets are applied as one vectored read and one
// vectored write of the touched tiles, then sealed by one commit.
func (s *Store) MergeBlock(b Block, bHat *Array) error {
	if err := validateMerge(s.opts.Shape, s.opts.Form, b, bHat); err != nil {
		return err
	}
	set := s.mergeSets.Get().(*tile.BucketSet)
	defer s.mergeSets.Put(set)
	return s.write(false, func(ts *tile.Store) error { return s.mergeBlock(ts, set, b, bHat) })
}

// mergeBlock buckets MergeBlock's embedding into set, a pooled set its
// caller puts back after the commit, and stages it through ts.
func (s *Store) mergeBlock(ts *tile.Store, set *tile.BucketSet, b Block, bHat *Array) error {
	defer set.Reset()
	if s.opts.Form == Standard {
		tile.AccumulateEmbedStandard(s.tiling, s.opts.Shape, b.toRange(), bHat, set)
	} else {
		m, pos := b.Levels[0], b.Pos
		tile.AccumulateShiftNonStandard(s.tiling, s.opts.Shape, m, pos, bHat, set)
		tile.AccumulateSplitNonStandard(s.tiling, s.opts.Shape, m, pos, bHat.Data()[0], set)
	}
	tile.AccumulateScalingSlots(s.tiling, set)
	return ts.ApplyBuckets(set.Buckets())
}

// ClearBlock zeroes the original data over a dyadic block entirely in the
// wavelet domain: the block's transform is extracted (inverse SHIFT-SPLIT)
// and its negation merged back — two block-local passes, no global
// reconstruction, one commit.
func (s *Store) ClearBlock(b Block) error {
	if err := validateMerge(s.opts.Shape, s.opts.Form, b, nil); err != nil {
		return err
	}
	set := s.mergeSets.Get().(*tile.BucketSet)
	defer s.mergeSets.Put(set)
	return s.write(false, func(ts *tile.Store) error {
		data, _, err := s.extractBlock(ts, b)
		if err != nil {
			return err
		}
		neg := Transform(data, s.opts.Form)
		for i := range neg.Data() {
			neg.Data()[i] = -neg.Data()[i]
		}
		return s.mergeBlock(ts, set, b, neg)
	})
}

// ExtractBlock reconstructs the original contents of a dyadic block from
// the store via inverse SHIFT-SPLIT (Result 6), returning the values and
// the number of blocks read.
func (s *Store) ExtractBlock(b Block) (out *Array, blocks int, err error) {
	err = s.WithSnapshot(func(sn *Snapshot) error {
		out, blocks, err = sn.ExtractBlock(b)
		return err
	})
	return out, blocks, err
}

// ExtractBox reconstructs an arbitrary box by dyadic decomposition (the
// non-standard form additionally splits pieces into cubes, §4.1).
func (s *Store) ExtractBox(start, shape []int) (out *Array, blocks int, err error) {
	err = s.WithSnapshot(func(sn *Snapshot) error {
		out, blocks, err = sn.ExtractBox(start, shape)
		return err
	})
	return out, blocks, err
}

// Point reconstructs a single cell. It reads exactly one block (the §3
// payoff of the stored scaling coefficients), except on a store whose slots
// are stale, which walks the root path. On a versioned store the read pins
// the current epoch for its duration (see WithSnapshot).
func (s *Store) Point(point ...int) (v float64, blocks int, err error) {
	err = s.WithSnapshot(func(sn *Snapshot) error {
		v, blocks, err = sn.Point(point...)
		return err
	})
	return v, blocks, err
}

// RangeSum evaluates the sum over [start, start+shape), returning the value
// and the number of blocks read.
func (s *Store) RangeSum(start, shape []int) (sum float64, blocks int, err error) {
	err = s.WithSnapshot(func(sn *Snapshot) error {
		sum, blocks, err = sn.RangeSum(start, shape)
		return err
	})
	return sum, blocks, err
}

// ReadTransform reads the whole transform back into memory (mainly for
// verification and small stores).
func (s *Store) ReadTransform() (out *Array, err error) {
	err = s.WithSnapshot(func(sn *Snapshot) error {
		out, err = sn.ReadTransform()
		return err
	})
	return out, err
}

// Points answers a batch of point queries with one vectored read of the
// blocks the whole batch needs, so that queries with overlapping root
// paths pay for their common tiles once. It returns the values in input
// order and the total number of distinct blocks read.
func (s *Store) Points(points [][]int) (vals []float64, blocks int, err error) {
	err = s.WithSnapshot(func(sn *Snapshot) error {
		vals, blocks, err = sn.Points(points)
		return err
	})
	return vals, blocks, err
}
