// Package storage provides the disk-block substrate of the paper's
// experiments: fixed-size blocks of coefficients addressed by integer block
// IDs, with an in-memory implementation, a real on-disk file implementation,
// an I/O-counting wrapper (the paper's plots report counted coefficient and
// block I/Os), and an LRU buffer pool.
//
// All stores model a lazily allocated, zero-initialized medium: reading a
// block that was never written yields zeros. That matches the engines'
// usage, which merge coefficient deltas into an initially zero transform.
package storage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// BlockStore is a device storing equally sized blocks of float64
// coefficients.
type BlockStore interface {
	// BlockSize returns the number of coefficients per block.
	BlockSize() int
	// ReadBlock fills buf (length BlockSize) with the contents of block id.
	ReadBlock(id int, buf []float64) error
	// WriteBlock stores data (length BlockSize) as block id.
	WriteBlock(id int, data []float64) error
	// Close releases resources and flushes any buffered state.
	Close() error
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("storage: store is closed")

// Syncer is implemented by devices that can flush buffered writes to stable
// media (FileStore, MappedStore, CrashStore), by the device wrappers a
// BaseWrap slides under the checksum layer, and by Counting, which counts
// the barrier.
type Syncer interface {
	Sync() error
}

// SyncIfAble syncs bs when it supports it and is a no-op otherwise.
func SyncIfAble(bs BlockStore) error {
	if s, ok := bs.(Syncer); ok {
		return s.Sync()
	}
	return nil
}

// Truncater is implemented by stores that can discard all blocks at once.
// The block journal relies on it: truncation is the atomic "batch applied"
// marker, mirroring how real filesystems make WAL resets atomic.
type Truncater interface {
	Truncate() error
}

// TruncateIfAble truncates bs, or reports an error when it cannot.
func TruncateIfAble(bs BlockStore) error {
	if t, ok := bs.(Truncater); ok {
		return t.Truncate()
	}
	return fmt.Errorf("storage: %T does not support Truncate", bs)
}

// Committer is implemented by transactional stores (Durable, Versioned)
// whose writes are staged until Commit makes them atomic and durable, by
// BufferPool, which flushes first, and by the layers that count (Counting),
// lock (Locked) or pick a leg (SplitRW) on the way down to one.
type Committer interface {
	Commit() error
}

// CommitIfAble commits bs when it is transactional and is a no-op
// otherwise: the layers above pass a durability point down without knowing
// what they were stacked on.
func CommitIfAble(bs BlockStore) error {
	if c, ok := bs.(Committer); ok {
		return c.Commit()
	}
	return nil
}

// RollbackIfAble discards the writes bs has staged since its last commit
// and reports whether bs stages writes at all. The transactional stores
// (Durable, Versioned) implement Rollback and report true; the layers that
// forward Commit on the way down to one (Counting, Locked, SplitRW) forward
// it the same way and report what the store under them reports. On
// anything else the writes already reached the device, and it reports
// false.
func RollbackIfAble(bs BlockStore) bool {
	if r, ok := bs.(interface{ Rollback() bool }); ok {
		return r.Rollback()
	}
	return false
}

func checkBlockArgs(bs BlockStore, id int, buf []float64) error {
	if id < 0 {
		return fmt.Errorf("storage: negative block id %d", id)
	}
	if len(buf) != bs.BlockSize() {
		return fmt.Errorf("storage: buffer length %d does not match block size %d", len(buf), bs.BlockSize())
	}
	return nil
}

// MemStore is an in-memory BlockStore. It is safe for concurrent use.
type MemStore struct {
	blockSize int
	mu        sync.RWMutex
	blocks    map[int][]float64
	closed    bool
}

// NewMemStore creates an in-memory store with the given block size.
func NewMemStore(blockSize int) *MemStore {
	if blockSize <= 0 {
		panic(fmt.Sprintf("storage: block size %d", blockSize))
	}
	return &MemStore{blockSize: blockSize, blocks: make(map[int][]float64)}
}

// BlockSize returns the number of coefficients per block.
func (s *MemStore) BlockSize() int { return s.blockSize }

// ReadBlock implements BlockStore; unwritten blocks read as zeros.
func (s *MemStore) ReadBlock(id int, buf []float64) error {
	if err := checkBlockArgs(s, id, buf); err != nil {
		return err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	if b, ok := s.blocks[id]; ok {
		copy(buf, b)
		return nil
	}
	ZeroFill(buf)
	return nil
}

// ReadBlocks implements BatchReader under a single lock acquisition.
func (s *MemStore) ReadBlocks(ids []int, bufs [][]float64) error {
	if err := checkBatchArgs(s, ids, bufs); err != nil {
		return err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	for i, id := range ids {
		if b, ok := s.blocks[id]; ok {
			copy(bufs[i], b)
		} else {
			ZeroFill(bufs[i])
		}
	}
	return nil
}

// WriteBlock implements BlockStore.
func (s *MemStore) WriteBlock(id int, data []float64) error {
	if err := checkBlockArgs(s, id, data); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	b, ok := s.blocks[id]
	if !ok {
		b = make([]float64, s.blockSize)
		s.blocks[id] = b
	}
	copy(b, data)
	return nil
}

// WriteBlocks implements BatchWriter under a single lock acquisition,
// storing data[i] as block ids[i] in slice order.
func (s *MemStore) WriteBlocks(ids []int, data [][]float64) error {
	if err := checkBatchArgs(s, ids, data); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	for i, id := range ids {
		b, ok := s.blocks[id]
		if !ok {
			b = make([]float64, s.blockSize)
			s.blocks[id] = b
		}
		copy(b, data[i])
	}
	return nil
}

// Len returns the number of materialized blocks.
func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.blocks)
}

// Truncate discards every block; subsequent reads see zeros.
func (s *MemStore) Truncate() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.blocks = make(map[int][]float64)
	return nil
}

// Close implements BlockStore.
func (s *MemStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.blocks = nil
	return nil
}

// Stats counts block-level I/O operations and durability points.
type Stats struct {
	Reads   int64 // blocks read from the underlying store
	Writes  int64 // blocks written to the underlying store
	Syncs   int64 // Sync barriers forwarded to the underlying store
	Commits int64 // Commit durability points forwarded to the underlying store
	// MappedReads is how many of the Reads were served from a memory
	// mapping (zero positional read syscalls) — a subset of Reads, not
	// an addition to Total. The counter lives on the device (MappedStore);
	// Counting cannot see it and leaves the field zero, and the owner of
	// the stack fills it in.
	MappedReads int64
}

// Total returns Reads + Writes (durability points move no blocks and are
// not included).
func (s Stats) Total() int64 { return s.Reads + s.Writes }

// Add returns s with o's counters added.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Reads:       s.Reads + o.Reads,
		Writes:      s.Writes + o.Writes,
		Syncs:       s.Syncs + o.Syncs,
		Commits:     s.Commits + o.Commits,
		MappedReads: s.MappedReads + o.MappedReads,
	}
}

// Sub returns s with o's counters subtracted — the delta of two samples
// bracketing an I/O window.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Reads:       s.Reads - o.Reads,
		Writes:      s.Writes - o.Writes,
		Syncs:       s.Syncs - o.Syncs,
		Commits:     s.Commits - o.Commits,
		MappedReads: s.MappedReads - o.MappedReads,
	}
}

// Counting wraps a BlockStore and counts every read and write that reaches
// the underlying store, plus the Sync/Commit durability points forwarded
// through it. This is the measurement instrument behind every figure in
// EXPERIMENTS.md. The counters are updated atomically, so Counting adds no
// synchronization requirements beyond the wrapped store's own.
type Counting struct {
	inner   BlockStore
	reads   atomic.Int64
	writes  atomic.Int64
	syncs   atomic.Int64
	commits atomic.Int64
}

// NewCounting wraps inner with an I/O counter.
func NewCounting(inner BlockStore) *Counting {
	return &Counting{inner: inner}
}

// BlockSize returns the wrapped store's block size.
func (c *Counting) BlockSize() int { return c.inner.BlockSize() }

// ReadBlock counts one read and delegates.
func (c *Counting) ReadBlock(id int, buf []float64) error {
	c.reads.Add(1)
	return c.inner.ReadBlock(id, buf)
}

// WriteBlock counts one write and delegates.
func (c *Counting) WriteBlock(id int, data []float64) error {
	c.writes.Add(1)
	return c.inner.WriteBlock(id, data)
}

// ReadBlocks counts one read per block and forwards the batch. The counts
// are the same as the per-block loop's on success; on a mid-batch error
// the whole batch has already been counted (it was requested of the
// device), where the loop would have stopped counting at the failure.
func (c *Counting) ReadBlocks(ids []int, bufs [][]float64) error {
	c.reads.Add(int64(len(ids)))
	return ReadBlocksOf(c.inner, ids, bufs)
}

// WriteBlocks counts one write per block and forwards the batch.
func (c *Counting) WriteBlocks(ids []int, data [][]float64) error {
	c.writes.Add(int64(len(ids)))
	return WriteBlocksOf(c.inner, ids, data)
}

// Close delegates to the wrapped store.
func (c *Counting) Close() error { return c.inner.Close() }

// Sync counts one sync barrier and forwards to the wrapped store (syncs
// move no blocks, so Reads/Writes are untouched).
func (c *Counting) Sync() error {
	c.syncs.Add(1)
	return SyncIfAble(c.inner)
}

// Commit counts one durability point and forwards it to the wrapped store.
func (c *Counting) Commit() error {
	c.commits.Add(1)
	return CommitIfAble(c.inner)
}

// Rollback forwards to the wrapped store (a rollback moves no blocks) and
// reports whether it staged writes.
func (c *Counting) Rollback() bool { return RollbackIfAble(c.inner) }

// Stats returns the counters accumulated so far.
func (c *Counting) Stats() Stats {
	return Stats{
		Reads:   c.reads.Load(),
		Writes:  c.writes.Load(),
		Syncs:   c.syncs.Load(),
		Commits: c.commits.Load(),
	}
}

// Reset zeroes the counters.
func (c *Counting) Reset() {
	c.reads.Store(0)
	c.writes.Store(0)
	c.syncs.Store(0)
	c.commits.Store(0)
}
