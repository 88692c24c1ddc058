package storage

import "fmt"

// This file defines the lending read: a read that may hand the caller a
// layer's own resident frame instead of a copy of it. The serve cache lends
// its slots (cache.Sharded); the layers above it on the query path
// (Snapshot, Degraded) pass the lease down. Only the query arena borrows:
// every other reader keeps the copying read, so a lent frame has exactly one
// lifetime rule, the arena's (DESIGN §16).

// Lender is implemented by read layers that can lend frames: LendBlocks is
// ReadBlocks, except that it may replace bufs[i] with a frame of its own,
// pinned under l until l.Return. A lent frame is read-only to the borrower.
// Positions it does not lend it fills like ReadBlocks, so on error every
// buffer is undefined just the same, but the lease must still be returned.
type Lender interface {
	LendBlocks(ids []int, bufs [][]float64, l *Lease) error
}

// LendBlocksOf reads a batch through bs, letting bs lend frames under l when
// it is a Lender and l is not nil; otherwise it is ReadBlocksOf.
func LendBlocksOf(bs BlockStore, ids []int, bufs [][]float64, l *Lease) error {
	if lb, ok := bs.(Lender); ok && l != nil && len(ids) > 0 {
		return lb.LendBlocks(ids, bufs, l)
	}
	return ReadBlocksOf(bs, ids, bufs)
}

// Unpinner is the layer a Lease gives its pins back to: the one that lent
// the frames.
type Unpinner interface {
	Unpin(pins []uint64)
}

// Lease holds the pins on the frames lent into one reader's buffers. The
// zero value is an empty lease. A lease holds the pins of one lender at a
// time; it keeps its pin list's memory across Return, so a pooled owner
// borrows without allocating.
type Lease struct {
	owner Unpinner
	pins  []uint64
}

// Hold records one pin owner took for a frame it lent. The lender calls it.
func (l *Lease) Hold(owner Unpinner, pin uint64) {
	if l.owner != nil && l.owner != owner {
		panic(fmt.Sprintf("storage: a lease holding pins of %T was lent a frame by %T", l.owner, owner))
	}
	l.owner = owner
	l.pins = append(l.pins, pin)
}

// Len returns the number of pins held.
func (l *Lease) Len() int { return len(l.pins) }

// Return gives every pin back. No frame lent under the lease may be read
// afterwards.
func (l *Lease) Return() {
	if len(l.pins) > 0 {
		l.owner.Unpin(l.pins)
	}
	l.owner, l.pins = nil, l.pins[:0]
}
