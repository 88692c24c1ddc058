package shiftsplit

import (
	"errors"
	"fmt"

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
	// layout (durable, versioned); when opening, also whether the scaling
	// slots are valid and the quarantine records the sidecar recorded.
	meta storeMeta
	// path backs the store with files; empty keeps it in memory.
	path string
	// legacy opens the files with what reads an older layout: reads by
	// pread, not through a mapping (openLegacy).
	legacy bool
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

// openDevice opens the raw, unframed block device of a non-durable store: a
// file read through its mapping (DESIGN §14), or memory.
func openDevice(sp stackSpec, blockSize int) (storage.BlockStore, error) {
	switch {
	case sp.path == "":
		return storage.NewMemStore(blockSize), nil
	case sp.legacy:
		return device(storage.OpenFileStore(sp.path, blockSize))
	case sp.create:
		return device(storage.NewMappedStore(sp.path, blockSize))
	}
	return device(storage.OpenMappedStore(sp.path, blockSize))
}

// openDurable builds the transactional block store of a durable Store:
// file-backed with a ".wal" journal sidecar and the data file read through
// its mapping, or in memory, with wrap applied to the raw data device.
// Opening replays or discards an interrupted batch.
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
	case sp.legacy:
		return storage.OpenDurableWrapped(sp.path, blockSize, sp.plan, wrap)
	case sp.create:
		return storage.CreateDurableMapped(sp.path, blockSize, sp.plan, wrap)
	}
	return storage.OpenDurableMapped(sp.path, blockSize, sp.plan, wrap)
}

// openLegacy opens the store sp describes with what reads its layout before
// the upgrade: the flat Durable, which replays or discards its journal, or
// the raw device of a non-durable file. Reads are unmapped.
func openLegacy(sp stackSpec, blockSize int) (storage.BlockStore, error) {
	sp.legacy = true
	if sp.meta.Durable {
		return device(openDurable(sp, blockSize, func(bs storage.BlockStore) storage.BlockStore { return bs }))
	}
	return openDevice(sp, blockSize)
}

// readVersionedInfo decodes the epoch superblock of the file-backed store
// sp describes without opening it, reading the data file through sp.wrap:
// a durable one through a checksum reader, any other raw. Nothing is
// replayed or written.
func readVersionedInfo(sp stackSpec, blockSize, logical int) (*storage.VersionedInfo, error) {
	frame := blockSize
	if sp.meta.Durable {
		frame += storage.ChecksumOverhead
	}
	fs, err := storage.OpenFileStore(sp.path, frame)
	if err != nil {
		return nil, err
	}
	defer fs.Close()
	var dev storage.BlockStore = fs
	if sp.wrap != nil {
		dev = sp.wrap(dev)
	}
	if sp.meta.Durable {
		if dev, err = device(storage.NewChecksumReader(dev)); err != nil {
			return nil, err
		}
	}
	return storage.ReadVersionedInfo(dev, logical)
}

// copyFrames copies the raw frames of the durable data file at from over
// those of the one at to, by block id (from's block -> to's), and syncs:
// a frame that fails verification still fails it where it lands.
func copyFrames(from, to string, blockSize int, blocks map[int]int) error {
	src, err := storage.OpenFileStore(from, blockSize+storage.ChecksumOverhead)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := storage.OpenFileStore(to, blockSize+storage.ChecksumOverhead)
	if err != nil {
		return err
	}
	frame := make([]float64, blockSize+storage.ChecksumOverhead)
	for s, d := range blocks {
		if err = src.ReadBlock(s, frame); err == nil {
			//shiftsplitvet:ignore journalwrite -- a raw frame into the upgrade's closed temporary file, before its rename: carrying a frame that fails verification needs the bytes unframed
			err = dst.WriteBlock(d, frame)
		}
		if err != nil {
			_ = dst.Close() // the copy error is the one to report
			return err
		}
	}
	if err := dst.Sync(); err != nil {
		_ = dst.Close() // the sync error is the one to report
		return err
	}
	return dst.Close()
}

// assemble builds the stack sp describes. A durable store always has the
// epoch layer (opening upgrades one written without it, see upgrade.go).
// Bottom to top:
//
//	maintenance: device → [Durable] → Counting → [Versioned] → tile.Store
//	serving:     device → [Durable] → Counting → [Breaker] → [cache] → [Degraded] → [Versioned] → tile.Store
//
// The serving chain is safe under any number of querying goroutines.
// Degraded needs the corruption detection only the durable layout has. A
// durable serving store splits its device: snapshot reads verify committed
// frames concurrently (ChecksumReader) while mutations keep the locked leg
// through the Durable, both under the one Counting —
//
//	reads:  Snapshot → Degraded → cache → Breaker → Counting → SplitRW → ChecksumReader → device
//	writes: Versioned builder → Counting → SplitRW → Locked → Durable
//
// Nothing is staged on that leg: the Durable writes every block of a
// building epoch straight through to the device (Durable.WriteThrough), so
// the builder's reads of what it has written take the read leg like every
// other read, and a Degraded above the cache never sees a write.
//
// The cache sits below the epoch layer and is keyed by physical block id,
// so a flip invalidates nothing; only the rebinding of a reclaimed physical
// block drops its entry (OnReuse).
//
// No capability travels up this chain. The Store calls each one at the
// layer that implements it, through the fields set here: a commit at the
// Versioned, else the Counting; a scrub, a repair and its re-verification
// at the Counting, below the cache and breaker, so they see the medium and
// neither trip nor pollute the layers above; the mapped-read count at the
// raw device, before any BaseWrap (DESIGN §11).
//
// Whatever has been opened is closed again on every error path.
func assemble(sp stackSpec) (_ *Store, err error) {
	m := sp.meta
	if m.Durable && !m.Versioned {
		return nil, fmt.Errorf("shiftsplit: a durable store without the epoch layer cannot be assembled")
	}
	tiling, form, err := tilingForMeta(m)
	if err != nil {
		return nil, err
	}
	out := &Store{
		opts: StoreOptions{
			Shape: m.Shape, Form: form, TileBits: m.TileBits, Path: sp.path,
			Durable: m.Durable, Versioned: m.Versioned,
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
		if out.durable, err = openDurable(sp, tiling.BlockSize(), device); err == nil {
			out.durable.WriteThrough()
		}
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
	if serve && m.Durable {
		rd, err := out.durable.ReadOnlyView()
		if err != nil {
			return nil, err
		}
		if counted, err = storage.NewSplitRW(rd, storage.NewLocked(out.durable)); err != nil {
			return nil, err
		}
	}
	out.counting = storage.NewCounting(counted)
	// read is the chain queries come down; mutations and the epoch layer's
	// table I/O enter at the Counting.
	var read storage.BlockStore = out.counting
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
			if errors.Is(err, storage.ErrFormat1) {
				f1 := format1Error{}
				if out.durable != nil {
					f1.replayed, _ = out.durable.Recovered()
				}
				err = f1
			}
			return nil, err
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
