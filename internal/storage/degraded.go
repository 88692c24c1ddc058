package storage

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Degraded layers quarantine-aware serving over a BlockStore. Reads of a
// quarantined block return zeros and count as degraded instead of failing,
// so a query whose support touches one bad frame still produces the rest
// of its answer — explicitly flagged, never silently wrong. The rules:
//
//   - a block already in quarantine reads as zeros (degraded, no error);
//   - a read that discovers fresh corruption quarantines the block but
//     still returns the error — the first hit must fail, because a
//     read-modify-write cycle above (tile updates, delta merges) that got
//     zeros here would fold them into a rewrite and silently destroy data;
//   - it is read-only: writes fail. The epoch layer above it reads
//     committed blocks through it and writes below it, so a quarantined
//     block leaves the registry only by a scrub that finds it clean, a
//     repair, or a whole-domain write.
//
// DegradedReads counts zero-filled block reads; the serving layer samples
// it around a query to set the response's degraded flag.
type Degraded struct {
	inner         BlockStore
	q             *Quarantine
	degradedReads atomic.Int64
}

// NewDegraded wraps inner with quarantine-aware serving backed by q.
func NewDegraded(inner BlockStore, q *Quarantine) (*Degraded, error) {
	if q == nil {
		return nil, fmt.Errorf("storage: degraded store needs a quarantine")
	}
	return &Degraded{inner: inner, q: q}, nil
}

// DegradedReads returns how many block reads have been served as zeros
// because the block was quarantined.
func (d *Degraded) DegradedReads() int64 { return d.degradedReads.Load() }

// BlockSize returns the wrapped block size.
func (d *Degraded) BlockSize() int { return d.inner.BlockSize() }

// ReadBlock serves a quarantined block as zeros (degraded) and forwards
// everything else, quarantining freshly discovered corruption.
func (d *Degraded) ReadBlock(id int, buf []float64) error {
	if d.q.Has(id) {
		ZeroFill(buf)
		d.degradedReads.Add(1)
		return nil
	}
	err := d.inner.ReadBlock(id, buf)
	if IsCorruption(err) {
		d.q.Add(id, fmt.Sprintf("read: %v", err))
	}
	return err
}

// ReadBlocks zero-fills the quarantined subset of the batch and forwards
// the rest as one vectored read. When the inner read reports corruption it
// names only the first bad frame, so the miss set is re-verified to
// quarantine every corrupt block the batch touched before the error
// surfaces.
func (d *Degraded) ReadBlocks(ids []int, bufs [][]float64) error {
	return d.LendBlocks(ids, bufs, nil)
}

// LendBlocks implements Lender: ReadBlocks, with the layer below lending
// its frames under l while the quarantine is empty. Once it is not, the
// batch is read by copy.
func (d *Degraded) LendBlocks(ids []int, bufs [][]float64, l *Lease) error {
	missIDs, missBufs := ids, bufs
	if d.q.Len() > 0 { // healthy stores forward the batch as it came
		l = nil
		missIDs, missBufs = make([]int, 0, len(ids)), make([][]float64, 0, len(ids))
		for i, id := range ids {
			if d.q.Has(id) {
				ZeroFill(bufs[i])
				d.degradedReads.Add(1)
			} else {
				missIDs = append(missIDs, id)
				missBufs = append(missBufs, bufs[i])
			}
		}
	}
	if len(missIDs) == 0 {
		return nil
	}
	err := LendBlocksOf(d.inner, missIDs, missBufs, l)
	if IsCorruption(err) {
		if corrupt, verr := VerifyBlocksOf(d.inner, missIDs); verr == nil {
			for _, id := range corrupt {
				d.q.Add(id, fmt.Sprintf("read: %v", err))
			}
		}
	}
	return err
}

// errDegradedWrite is what a write through a Degraded returns.
var errDegradedWrite = errors.New("storage: degraded serving layer is read-only")

// WriteBlock fails: the layer is read-only.
func (d *Degraded) WriteBlock(int, []float64) error { return errDegradedWrite }

// WriteBlocks fails: the layer is read-only.
func (d *Degraded) WriteBlocks([]int, [][]float64) error { return errDegradedWrite }

// Close delegates.
func (d *Degraded) Close() error { return d.inner.Close() }
