package storage

import "sync"

// Locked wraps a BlockStore with a mutex, making it safe for concurrent
// use. None of the stores in this package are otherwise goroutine-safe
// (they reuse internal buffers), so concurrent readers — e.g. parallel
// query workers sharing one tiled transform — should wrap the shared
// device in Locked and give each worker its own tile.Store view (whose
// scratch buffers are per-instance).
type Locked struct {
	mu    sync.Mutex
	inner BlockStore
}

// NewLocked wraps inner with a mutex.
func NewLocked(inner BlockStore) *Locked {
	return &Locked{inner: inner}
}

// BlockSize returns the wrapped block size.
func (l *Locked) BlockSize() int { return l.inner.BlockSize() }

// ReadBlock delegates under the lock.
func (l *Locked) ReadBlock(id int, buf []float64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.ReadBlock(id, buf)
}

// WriteBlock delegates under the lock.
func (l *Locked) WriteBlock(id int, data []float64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.WriteBlock(id, data)
}

// ReadBlocks delegates the whole batch under one lock acquisition — the
// lock-traffic win vectored requests exist for.
func (l *Locked) ReadBlocks(ids []int, bufs [][]float64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return ReadBlocksOf(l.inner, ids, bufs)
}

// WriteBlocks delegates the whole batch under one lock acquisition.
func (l *Locked) WriteBlocks(ids []int, data [][]float64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return WriteBlocksOf(l.inner, ids, data)
}

// Sync delegates under the lock: an epoch flip on a served durable store
// syncs the Durable through it.
func (l *Locked) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return SyncIfAble(l.inner)
}

// Commit delegates under the lock.
func (l *Locked) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return CommitIfAble(l.inner)
}

// Rollback delegates under the lock: readers of a flat durable serving
// store reach the Durable's staging area through it. It reports whether
// the inner store staged writes.
func (l *Locked) Rollback() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return RollbackIfAble(l.inner)
}

// Close delegates under the lock.
func (l *Locked) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.Close()
}
