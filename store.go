package shiftsplit

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/shiftsplit/shiftsplit/internal/bitutil"
	"github.com/shiftsplit/shiftsplit/internal/cache"
	"github.com/shiftsplit/shiftsplit/internal/parallel"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
	"github.com/shiftsplit/shiftsplit/internal/transform"
)

// IOStats reports block-level I/O on a Store, plus the durability barriers
// (syncs) and transactional batch seals (commits) the stack issued.
type IOStats struct {
	Reads   int64
	Writes  int64
	Syncs   int64
	Commits int64
	// MappedReads is how many of the Reads were served zero-syscall from
	// a memory mapping (stores created with Mapped). A subset of Reads,
	// not an addition to Total.
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
	// Mapped serves file reads from a shared read-only memory mapping
	// (storage.MappedStore) instead of pread calls: warm reads are
	// zero-copy and zero-syscall, reported via IOStats.MappedReads.
	// Writes keep the positional-write (and, with Durable, journal)
	// path, and the on-disk layout is unchanged — a mapped store's file
	// can be reopened unmapped and vice versa. Requires Path.
	Mapped bool
	// Durable layers crash safety under the store: every block is framed
	// with a 64-bit check word + epoch so torn writes and bit rot are
	// detected on read, and every maintenance operation (Materialize,
	// TransformChunked, MergeBlock, ClearBlock) is applied atomically
	// through a write-ahead block journal — a crash leaves either the pre-
	// or the post-operation transform, never a hybrid, and OpenStore rolls
	// interrupted batches forward or discards them. File-backed durable
	// stores use a different on-disk layout (framed blocks plus a ".wal"
	// sidecar) and are not interchangeable with non-durable files.
	Durable bool
	// Versioned interposes the MVCC epoch layer (storage.Versioned) between
	// the tile map and the physical store: every maintenance batch builds
	// the next epoch in freshly allocated physical blocks and commits it
	// with an atomic flip, while queries pin the current epoch through a
	// refcounted Snapshot — so reads never observe a mid-batch state and
	// never contend with writers. On a durable store the flip commits in
	// the same journal group as the batch (crash recovers to exactly the
	// old or exactly the new epoch). Versioned stores use a different
	// on-disk layout (superblock + remap table ahead of the data blocks)
	// and are not interchangeable with non-versioned files.
	Versioned bool
	// FaultPlan, when non-nil, routes the physical writes of a durable
	// store through a storage.CrashStore governed by the plan — the
	// power-cut testing facility behind the crash campaign. It is ignored
	// unless Durable is set, and is not persisted in store metadata.
	FaultPlan *storage.CrashPlan
	// BaseWrap, when non-nil, wraps the raw block device (below the
	// checksum/journal layers of a durable store) — the seam the chaos
	// harness uses to slide a storage.Faulty under a real store. Not
	// persisted in store metadata.
	BaseWrap func(storage.BlockStore) storage.BlockStore
}

// MaintainOptions tunes the worker pool behind the maintenance operations
// (TransformChunked, Materialize, and the Appender). The zero value selects
// the defaults: one transform worker per CPU and a chunk queue of twice the
// worker count. Results are bit-identical and I/O counters equal for every
// setting — parallelism changes wall-clock time only.
type MaintainOptions struct {
	// Workers is the number of goroutines transforming chunks; <= 0 selects
	// runtime.GOMAXPROCS(0), and 1 runs fully sequentially.
	Workers int
	// ChunkQueue bounds how many transformed-but-unapplied chunks may be in
	// flight, each holding its bucketed deltas in memory; <= 0 selects
	// 2*Workers. Larger values smooth over chunks of uneven cost at the
	// price of memory.
	ChunkQueue int
}

// engine lowers the public options to the internal pool configuration. The
// physical I/O order on the destination must be exactly the sequential
// engine's whenever the storage stack is order-sensitive: the serve cache
// (hit/miss counts depend on access order) and durable stores (crash
// campaigns kill maintenance at every physical write index and expect a
// deterministic sequence).
func (o MaintainOptions) engine(s *Store) parallel.Options {
	return parallel.Options{
		Workers:     o.Workers,
		ChunkQueue:  o.ChunkQueue,
		SerialApply: s.cache != nil || s.durable != nil || s.versioned != nil,
	}
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
// buffers. Maintenance (Materialize, TransformChunked, MergeBlock,
// ClearBlock) still requires external synchronization, and maintenance
// must not run concurrently with queries.
type Store struct {
	opts     StoreOptions
	tiling   tile.Tiling
	counting *storage.Counting
	cache    *cache.Sharded
	durable  *storage.Durable
	// versioned, when non-nil, is the MVCC epoch layer the tile store sits
	// on: queries pin epochs through it, maintenance builds the next epoch
	// behind it (see WithSnapshot).
	versioned *storage.Versioned
	store     *tile.Store
	// mergeSets pools the *tile.BucketSet MergeBlock buckets an embedding
	// into, so a steady stream of merges reuses the delta slices.
	mergeSets sync.Pool
	// slots reports whether every block's scaling slots are valid, so
	// points read one block. It is fixed for the life of the handle: true
	// on a created store, the sidecar's "materialized" key on an opened one.
	// Every maintenance path keeps valid slots valid, committing them in
	// the same batch and epoch as the coefficients; a store last maintained
	// by an older binary has stale slots and keeps the root path until it
	// is re-materialized and reopened.
	slots bool
	// slotsOnMedia is what the sidecar records (guarded by metaMu): slots,
	// or true once a Materialize has rewritten every slot.
	slotsOnMedia bool

	// base is the layer under the serving layers where commits (on stores
	// without the epoch layer), scrubs and repairs enter: below the cache
	// and breaker, above the device, sharing the serving path's lock (see
	// assemble).
	base      baseLayer
	scrubSafe bool // base may be walked concurrently with queries
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

// ErrQuarantined is returned by incremental maintenance (TransformChunked,
// MergeBlock, ClearBlock) while any block is quarantined: those operations
// read-modify-write the stored transform, and folding a zero-filled
// degraded read back into the medium would silently destroy data.
// Materialize is exempt — it rewrites every block from scratch and heals
// the store.
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
	if opts.Mapped && opts.Path == "" {
		return nil, fmt.Errorf("shiftsplit: Mapped requires a file-backed store (set Path)")
	}
	return assemble(stackSpec{
		meta: storeMeta{
			Shape: opts.Shape, Form: opts.Form.String(), TileBits: opts.TileBits,
			Materialized: true, // an empty store's slots are valid: all zero
			Durable:      opts.Durable, Mapped: opts.Mapped, Versioned: opts.Versioned,
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

// Flush seals the writes made since the last commit: on a versioned store
// it flips the epoch, on a durable store it commits them as one atomic
// batch.
func (s *Store) Flush() error { return s.commit() }

// Durable reports whether the store runs on the crash-safe storage layer.
func (s *Store) Durable() bool { return s.durable != nil }

// Mapped reports whether block reads are served from a shared read-only
// memory mapping (zero-copy, zero read syscalls when warm).
func (s *Store) Mapped() bool { return s.opts.Mapped }

// Recovered reports how many blocks were rolled forward from the journal
// when the store was opened; ok is false if no interrupted batch was found.
func (s *Store) Recovered() (blocks int, ok bool) {
	if s.durable == nil {
		return 0, false
	}
	return s.durable.Recovered()
}

// commit seals a batch at the layer that implements it: the epoch layer
// flips (committing the Durable under it), and otherwise base passes the
// commit to the Durable. On a plain device the
// commit is only counted. A non-durable, file-backed store has no journal
// to make a flip durable, so the device is synced after each one.
func (s *Store) commit() error {
	if s.versioned == nil {
		return s.base.Commit()
	}
	epoch := s.versioned.Epoch()
	if err := s.versioned.Commit(); err != nil {
		return err
	}
	if s.durable == nil && s.opts.Path != "" && s.versioned.Epoch() != epoch {
		if err := s.counting.Sync(); err != nil {
			return fmt.Errorf("shiftsplit: sync epoch %d: %w", s.versioned.Epoch(), err)
		}
	}
	return nil
}

// Close stops any background scrubber, flushes caches, and releases the
// underlying storage.
func (s *Store) Close() error {
	s.StopScrub()
	return s.store.Close()
}

// Materialize transforms a in memory and writes the complete tiled layout,
// including the per-tile scaling coefficients that make single-block point
// queries possible. Use TransformChunked instead when a does not fit the
// I/O budget of an in-memory transform.
func (s *Store) Materialize(a *Array) error {
	return s.MaterializeOpts(a, MaintainOptions{})
}

// MaterializeOpts is Materialize with an explicit worker-pool configuration.
// Block contents are computed concurrently; the physical writes happen in
// ascending block order regardless of the worker count, so the on-disk
// result and the I/O counters match the sequential path exactly.
func (s *Store) MaterializeOpts(a *Array, opts MaintainOptions) error {
	hat := Transform(a, s.opts.Form)
	var err error
	switch s.tiling.(type) {
	case *tile.Standard:
		err = parallel.MaterializeStandard(s.store, hat, opts.engine(s))
	case *tile.NonStandard:
		err = parallel.MaterializeNonStandard(s.store, hat, opts.engine(s))
	}
	if err != nil {
		return err
	}
	if err := s.commit(); err != nil {
		return err
	}
	// A materialize rewrites every block's frame from scratch, so whatever
	// was quarantined is now fresh bytes: heal the registry wholesale.
	if s.quarantine != nil && s.quarantine.Len() > 0 {
		s.quarantine.Replace(nil)
	}
	// Every slot is valid now: a store opened with stale ones records so,
	// and takes the single-block path from its next open.
	s.metaMu.Lock()
	s.slotsOnMedia = true
	s.metaMu.Unlock()
	return s.saveMeta()
}

// TransformChunked runs the paper's I/O-efficient chunked transformation
// (Result 1 for the standard form; Result 2, with z-ordered chunks and an
// in-memory crest, for the non-standard form), using memory for one chunk
// of edge 2^chunkBits per dimension. The per-tile scaling slots are written
// with the coefficients, at no extra block I/O.
func (s *Store) TransformChunked(src *Array, chunkBits int) error {
	return s.TransformChunkedOpts(src, chunkBits, MaintainOptions{})
}

// TransformChunkedOpts is TransformChunked with an explicit worker-pool
// configuration: chunk transforms and SHIFT-SPLIT bucketing fan out to
// opts.Workers goroutines while per-tile delta application stays in chunk
// order, so the resulting transform is bit-identical and the I/O counters
// equal for every worker count.
func (s *Store) TransformChunkedOpts(src *Array, chunkBits int, opts MaintainOptions) error {
	if err := s.maintenanceGuard(); err != nil {
		return err
	}
	var err error
	switch s.opts.Form {
	case Standard:
		_, err = transform.ChunkedStandardOpts(src, chunkBits, s.store, opts.engine(s))
	case NonStandard:
		_, err = transform.ChunkedNonStandardOpts(src, chunkBits, s.store, transform.NonStdOptions{ZOrderCrest: true}, opts.engine(s))
	}
	if err != nil {
		return err
	}
	return s.commit()
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
	if err := s.maintenanceGuard(); err != nil {
		return err
	}
	set, ok := s.mergeSets.Get().(*tile.BucketSet)
	if !ok {
		set = tile.NewBucketSet(s.tiling.BlockSize())
	}
	defer func() {
		set.Reset()
		s.mergeSets.Put(set)
	}()
	if s.opts.Form == Standard {
		tile.AccumulateEmbedStandard(s.tiling, s.opts.Shape, b.toRange(), bHat, set)
	} else {
		m, pos := b.Levels[0], b.Pos
		tile.AccumulateShiftNonStandard(s.tiling, s.opts.Shape, m, pos, bHat, set)
		tile.AccumulateSplitNonStandard(s.tiling, s.opts.Shape, m, pos, bHat.Data()[0], set)
	}
	tile.AccumulateScalingSlots(s.tiling, set)
	if err := s.store.ApplyBuckets(set.Buckets()); err != nil {
		return err
	}
	return s.commit()
}

// ClearBlock zeroes the original data over a dyadic block entirely in the
// wavelet domain: the block's transform is extracted (inverse SHIFT-SPLIT)
// and its negation merged back — two block-local passes, no global
// reconstruction.
func (s *Store) ClearBlock(b Block) error {
	if err := validateMerge(s.opts.Shape, s.opts.Form, b, nil); err != nil {
		return err
	}
	if err := s.maintenanceGuard(); err != nil {
		return err
	}
	bHat, _, err := s.ExtractBlock(b)
	if err != nil {
		return err
	}
	neg := Transform(bHat, s.opts.Form) // bHat holds data values; transform then negate
	for i := range neg.Data() {
		neg.Data()[i] = -neg.Data()[i]
	}
	return s.MergeBlock(b, neg)
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
