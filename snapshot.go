package shiftsplit

import (
	"fmt"

	"github.com/shiftsplit/shiftsplit/internal/query"
	"github.com/shiftsplit/shiftsplit/internal/reconstruct"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
)

// Snapshot is a pinned, immutable read view of a Store. On a versioned
// store it holds a refcounted pin on one committed epoch: every query
// through the snapshot resolves that epoch's remap table, so a maintenance
// batch building (or flipping to) the next epoch is invisible for the
// snapshot's whole lifetime. On a non-versioned store it is a zero-cost
// pass-through to the live store, preserving that configuration's exact
// behavior and I/O accounting.
//
// A Snapshot exists only inside Store.WithSnapshot, which unpins it when
// the callback exits, so a pin cannot leak by construction. A Snapshot must
// not be used after its callback returns.
//
// Snapshots are safe for concurrent use whenever the store's read path is
// (anything opened with OpenServing, in-memory and plain file stores).
type Snapshot struct {
	st    *Store
	ts    *tile.Store // &tiles on a versioned store, else the live store
	epoch uint64
	// pin and tiles are held by value, so a snapshot is one allocation: pin
	// is the epoch pin (versioned stores only) and tiles the tile view over
	// it.
	pin   storage.Snapshot
	tiles tile.Store
}

// WithSnapshot pins the current committed epoch, runs fn against it and
// returns its error. The pin is released on every exit of fn: a return, a
// panic or runtime.Goexit.
func (s *Store) WithSnapshot(fn func(*Snapshot) error) error {
	sn := &Snapshot{st: s, ts: s.store}
	if s.versioned != nil {
		s.versioned.Pin(&sn.pin)
		defer sn.pin.Release()
		if err := sn.tiles.Init(&sn.pin, s.tiling); err != nil {
			return err
		}
		sn.ts, sn.epoch = &sn.tiles, sn.pin.Epoch()
	}
	return fn(sn)
}

// Epoch returns the pinned epoch (always 0 on non-versioned stores).
func (sn *Snapshot) Epoch() uint64 { return sn.epoch }

// Shape returns the transformed domain extents.
func (sn *Snapshot) Shape() []int { return sn.st.Shape() }

// Form returns the decomposition form.
func (sn *Snapshot) Form() Form { return sn.st.Form() }

// Point reconstructs a single cell as of the pinned epoch. With valid
// scaling slots this reads exactly one block (the §3 payoff of the stored
// scaling coefficients); on a store whose slots are stale the range-sum
// kernel of its form sums the cell as a box of extent 1, reading its root
// path.
func (sn *Snapshot) Point(point ...int) (float64, int, error) {
	s := sn.st
	if s.slots {
		if s.opts.Form == Standard {
			return query.PointStandard(sn.ts, point)
		}
		return query.PointNonStandard(sn.ts, point)
	}
	if s.opts.Form == Standard {
		return query.PointViaRootPath(sn.ts, s.opts.Shape, point)
	}
	return query.PointViaRootPathNonStandard(sn.ts, point)
}

// RangeSum evaluates the sum over [start, start+shape) as of the pinned
// epoch, returning the value and the number of blocks read.
func (sn *Snapshot) RangeSum(start, shape []int) (float64, int, error) {
	s := sn.st
	if s.opts.Form == Standard {
		return query.RangeSumStandard(sn.ts, s.opts.Shape, start, shape)
	}
	return query.RangeSumNonStandard(sn.ts, start, shape)
}

// ExtractBlock reconstructs the original contents of a dyadic block via
// inverse SHIFT-SPLIT (Result 6) as of the pinned epoch.
func (sn *Snapshot) ExtractBlock(b Block) (*Array, int, error) {
	return sn.st.extractBlock(sn.ts, b)
}

// extractBlock is ExtractBlock over the tile view ts: a snapshot's, or the
// view a write stages through (ClearBlock).
func (s *Store) extractBlock(ts *tile.Store, b Block) (*Array, int, error) {
	if err := b.validate(s.opts.Shape); err != nil {
		return nil, 0, err
	}
	switch s.opts.Form {
	case Standard:
		return reconstruct.DyadicStandard(ts, b.toRange())
	case NonStandard:
		if !b.isCubic() {
			return nil, 0, fmt.Errorf("shiftsplit: non-standard extract needs a cubic block")
		}
		return reconstruct.DyadicNonStandard(ts, b.Levels[0], b.Pos)
	default:
		return nil, 0, fmt.Errorf("shiftsplit: unknown form %v", s.opts.Form)
	}
}

// ExtractBox reconstructs an arbitrary box by dyadic decomposition as of
// the pinned epoch. Its pieces are planned together and fetched with one
// vectored read, so the count is the distinct blocks of their union.
func (sn *Snapshot) ExtractBox(start, shape []int) (*Array, int, error) {
	if sn.st.opts.Form == NonStandard {
		return reconstruct.BoxNonStandard(sn.ts, start, shape)
	}
	return reconstruct.Box(sn.ts, start, shape)
}

// ReadTransform reads the whole transform as of the pinned epoch, with one
// vectored read of every block.
func (sn *Snapshot) ReadTransform() (*Array, error) {
	return tile.ReadArray(sn.ts, sn.st.opts.Shape)
}

// Points answers a batch of point queries against the pinned epoch with
// one vectored read of the blocks the whole batch needs: with valid scaling
// slots each point's leaf tile alone, at most one block per point. It
// returns the values in input order and the number of distinct blocks read.
func (sn *Snapshot) Points(points [][]int) ([]float64, int, error) {
	s := sn.st
	switch {
	case s.slots && s.opts.Form == Standard:
		return query.PointStandardBatch(sn.ts, points)
	case s.slots:
		return query.PointNonStandardBatch(sn.ts, points)
	case s.opts.Form == Standard:
		return query.PointBatch(sn.ts, s.opts.Shape, points)
	default:
		return query.PointBatchNonStandard(sn.ts, points)
	}
}

// ProgressiveRangeSum answers a box aggregate progressively against the
// pinned epoch (coarse coefficients first); the final step is exact.
// Standard form only.
func (sn *Snapshot) ProgressiveRangeSum(start, shape []int) ([]ProgressiveStep, error) {
	s := sn.st
	if s.opts.Form != Standard {
		return nil, fmt.Errorf("shiftsplit: progressive queries need a standard-form store")
	}
	return query.ProgressiveRangeSum(sn.ts, s.opts.Shape, start, shape)
}

// ProgressiveRangeSumFunc is the streaming form of ProgressiveRangeSum: fn
// receives every refinement step as soon as it is computed. The snapshot
// stays pinned for the whole stream, so every refinement describes the same
// epoch even while maintenance flips underneath.
func (sn *Snapshot) ProgressiveRangeSumFunc(start, shape []int, fn func(ProgressiveStep) error) error {
	s := sn.st
	if s.opts.Form != Standard {
		return fmt.Errorf("shiftsplit: progressive queries need a standard-form store")
	}
	return query.ProgressiveRangeSumFunc(sn.ts, s.opts.Shape, start, shape, fn)
}

// Versioned reports whether the store runs on the MVCC epoch layer.
func (s *Store) Versioned() bool { return s.versioned != nil }

// CurrentEpoch returns the current committed epoch (0 on non-versioned
// stores, where there is exactly one ever-current version).
func (s *Store) CurrentEpoch() uint64 {
	if s.versioned == nil {
		return 0
	}
	return s.versioned.Epoch()
}

// EpochStats re-exports the epoch layer's observability counters.
type EpochStats = storage.EpochStats

// EpochStats reports the epoch layer's state; ok is false on non-versioned
// stores.
func (s *Store) EpochStats() (EpochStats, bool) {
	if s.versioned == nil {
		return EpochStats{}, false
	}
	return s.versioned.Stats(), true
}
