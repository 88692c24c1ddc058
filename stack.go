package shiftsplit

import (
	"github.com/shiftsplit/shiftsplit/internal/cache"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
)

// This file is the one place a storage stack is put together. CreateStore,
// OpenStore and OpenServingOpts validate their input, lower it to a
// stackSpec and call assemble; which layers exist, in which order, and what
// the scrubber and the epoch layer's reuse hook attach to is decided here
// and nowhere else (DESIGN §8 draws the result).

// stackSpec is everything that decides which layers a Store runs on.
type stackSpec struct {
	// meta carries the geometry (shape, form, tile bits) and the on-media
	// layout (durable, mapped, versioned); when opening, also whether the
	// scaling slots are valid and the quarantine records the sidecar
	// recorded.
	meta storeMeta
	// path backs the store with files; empty keeps it in memory.
	path string
	// create truncates the files and writes a fresh sidecar.
	create bool
	// plan routes a durable store's physical writes through a CrashStore.
	plan *storage.CrashPlan
	// wrap wraps the raw data device, below the checksum layer.
	wrap func(storage.BlockStore) storage.BlockStore
	// serve, when non-nil, selects the concurrent serving topology.
	serve *ServeOptions
}

// device adapts a concrete store constructor's result to the interface
// without turning a nil pointer into a non-nil BlockStore.
func device[S storage.BlockStore](s S, err error) (storage.BlockStore, error) {
	if err != nil {
		return nil, err
	}
	return s, nil
}

// openDevice opens the raw, unframed block device of a non-durable store.
func openDevice(sp stackSpec, blockSize int) (storage.BlockStore, error) {
	switch {
	case sp.path == "":
		return storage.NewMemStore(blockSize), nil
	case sp.meta.Mapped && sp.create:
		return device(storage.NewMappedStore(sp.path, blockSize))
	case sp.meta.Mapped:
		return device(storage.OpenMappedStore(sp.path, blockSize))
	case sp.create:
		return device(storage.NewFileStore(sp.path, blockSize))
	}
	return device(storage.OpenFileStore(sp.path, blockSize))
}

// openDurable builds the transactional block store of a durable Store:
// file-backed with a ".wal" journal sidecar, or in memory, with wrap applied
// to the raw data device. Opening replays or discards an interrupted batch.
func openDurable(sp stackSpec, blockSize int, wrap func(storage.BlockStore) storage.BlockStore) (*storage.Durable, error) {
	switch {
	case sp.path == "":
		crash := func(bs storage.BlockStore) storage.BlockStore {
			if sp.plan == nil {
				return bs
			}
			return storage.NewCrashStore(bs, sp.plan)
		}
		data := wrap(storage.NewMemStore(blockSize + storage.ChecksumOverhead))
		return storage.NewDurable(crash(data), crash(storage.NewMemStore(blockSize+storage.JournalOverhead)))
	case sp.meta.Mapped && sp.create:
		return storage.CreateDurableMapped(sp.path, blockSize, sp.plan, wrap)
	case sp.meta.Mapped:
		return storage.OpenDurableMapped(sp.path, blockSize, sp.plan, wrap)
	case sp.create:
		return storage.CreateDurableWrapped(sp.path, blockSize, sp.plan, wrap)
	}
	return storage.OpenDurableWrapped(sp.path, blockSize, sp.plan, wrap)
}

// baseLayer is what assemble puts directly under the serving layers: the
// Counting, or a Locked over it. Either one counts or locks a commit, a
// rollback, a verification or a repair and passes it down to the Durable or
// the device.
type baseLayer interface {
	storage.BlockStore
	storage.Committer
	storage.Verifier
	storage.Repairer
	Rollback() bool
}

// assemble builds the stack sp describes. Bottom to top:
//
//	maintenance: device → [Durable] → Counting → [Versioned] → tile.Store
//	serving:     device → [Durable] → Counting → [Locked] → [Breaker] → [cache] → [Degraded] → [Versioned] → tile.Store
//
// The serving chain is safe under any number of querying goroutines. Locked
// serializes the single-threaded Durable and is there only when the store
// is durable but not versioned; Degraded needs the corruption detection only
// the durable layout has. A durable and versioned serving store splits its
// device instead: snapshot reads verify committed frames concurrently
// (ChecksumReader) while mutations keep the locked, journaled leg, both
// under the one Counting —
//
//	reads:  Snapshot → Degraded → cache → Breaker → Counting → SplitRW → ChecksumReader → device
//	writes: Versioned builder → Counting → SplitRW → Locked → Durable
//
// Nothing is staged on that leg: the Durable writes every block of a
// building epoch straight through to the device (storage.Durable.ShadowFrom,
// set by Versioned.AttachDurable), so the builder's reads of what it has
// written take the read leg like every other read.
//
// The cache sits below the epoch layer and is keyed by physical block id,
// so a flip invalidates nothing; only the rebinding of a reclaimed physical
// block drops its entry (OnReuse).
//
// No capability travels up this chain. The Store calls each one at the
// layer that implements it, through the fields set here: a commit at the
// Versioned, else base; a scrub, a repair and its re-verification at base —
// the Counting, or the Locked over it that the read path shares — below the
// cache and breaker, so they see the medium and neither trip nor pollute
// the layers above; the mapped-read count at the raw device, before any
// BaseWrap (DESIGN §11).
//
// Whatever has been opened is closed again on every error path.
func assemble(sp stackSpec) (_ *Store, err error) {
	m := sp.meta
	tiling, form, err := tilingForMeta(m)
	if err != nil {
		return nil, err
	}
	out := &Store{
		opts: StoreOptions{
			Shape: m.Shape, Form: form, TileBits: m.TileBits, Path: sp.path,
			Mapped: m.Mapped, Durable: m.Durable, Versioned: m.Versioned,
			FaultPlan: sp.plan, BaseWrap: sp.wrap,
		},
		tiling: tiling,
		blank:  sp.create,
	}
	out.mergeSets.New = func() any { return tile.NewBucketSet(tiling.BlockSize()) }
	// device sees the raw data device, then slides the BaseWrap over it.
	device := func(bs storage.BlockStore) storage.BlockStore {
		out.mapped, _ = bs.(storage.MappedReadsReporter)
		if sp.wrap != nil {
			bs = sp.wrap(bs)
		}
		return bs
	}
	var base storage.BlockStore
	if m.Durable {
		out.durable, err = openDurable(sp, tiling.BlockSize(), device)
		base = out.durable
	} else if base, err = openDevice(sp, tiling.BlockSize()); err == nil {
		base = device(base)
	}
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			_ = base.Close() // best-effort: the assembly error is the one to report
		}
	}()
	out.attachQuarantine(m.Quarantined)

	serve := sp.serve != nil
	counted := base
	if serve && m.Durable && m.Versioned {
		rd, err := out.durable.ReadOnlyView()
		if err != nil {
			return nil, err
		}
		if counted, err = storage.NewSplitRW(rd, storage.NewLocked(out.durable)); err != nil {
			return nil, err
		}
	}
	out.counting = storage.NewCounting(counted)
	out.base = out.counting
	if serve && m.Durable && !m.Versioned {
		out.base = storage.NewLocked(out.counting)
	}
	// read is the chain queries come down; mutations and the epoch layer's
	// table I/O enter at the Counting.
	var read storage.BlockStore = out.base
	if serve {
		out.scrubSafe = true
		if sp.serve.Breaker != nil {
			out.breaker = storage.NewBreaker(read, *sp.serve.Breaker)
			read = out.breaker
		}
		if sp.serve.CacheBlocks > 0 {
			if out.cache, err = cache.New(read, sp.serve.CacheBlocks, sp.serve.CacheShards); err != nil {
				return nil, err
			}
			read = out.cache
		}
		if m.Durable {
			if out.degraded, err = storage.NewDegraded(read, out.quarantine); err != nil {
				return nil, err
			}
			read = out.degraded
		}
	}
	out.slots, out.slotsOnMedia = m.Materialized, m.Materialized
	if m.Versioned {
		// Durable recovery has already run (journal replayed or discarded),
		// so the superblock read here lands on a consistent epoch.
		if out.versioned, err = storage.NewVersionedSplit(out.counting, read, tiling.NumBlocks()); err != nil {
			return nil, err
		}
		if out.durable != nil {
			out.versioned.AttachDurable(out.durable)
		}
		if out.cache != nil {
			out.versioned.OnReuse(out.cache.Drop)
		}
		read = out.versioned
	}
	if out.store, err = tile.NewStore(read, tiling); err != nil {
		return nil, err
	}
	if sp.create {
		if err = out.saveMeta(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
