package storage

import (
	"container/list"
	"fmt"
	"sync"
)

// BufferPool is an LRU write-back cache of blocks in front of a BlockStore.
// It models the paper's limited main memory: a pool of capacity C holds C
// blocks; accessing a cached block costs no I/O on the underlying store,
// while a miss reads (and, for dirty evictions, writes) through.
//
// A mutex serializes every operation, so a BufferPool is safe for
// concurrent use (and, because all inner-store traffic happens under the
// lock, it also serializes access to the wrapped store).
type BufferPool struct {
	mu       sync.Mutex
	inner    BlockStore
	capacity int
	lru      *list.List // front = most recently used; values are *frame
	frames   map[int]*list.Element
	hits     int64
	misses   int64
	closed   bool
}

type frame struct {
	id     int
	data   []float64
	dirty  bool
	loaded bool // data holds valid contents (false only for a batch-read placeholder awaiting its vectored fill)
}

// NewBufferPool wraps inner with an LRU cache of the given block capacity.
func NewBufferPool(inner BlockStore, capacity int) *BufferPool {
	if capacity <= 0 {
		panic(fmt.Sprintf("storage: buffer pool capacity %d", capacity))
	}
	return &BufferPool{
		inner:    inner,
		capacity: capacity,
		lru:      list.New(),
		frames:   make(map[int]*list.Element),
	}
}

// BlockSize returns the wrapped store's block size.
func (p *BufferPool) BlockSize() int { return p.inner.BlockSize() }

func (p *BufferPool) get(id int, loadFromInner bool) (*frame, error) {
	if el, ok := p.frames[id]; ok {
		p.hits++
		p.lru.MoveToFront(el)
		return el.Value.(*frame), nil
	}
	p.misses++
	if err := p.evictIfFull(); err != nil {
		return nil, err
	}
	fr := &frame{id: id, data: make([]float64, p.inner.BlockSize())}
	if loadFromInner {
		if err := p.inner.ReadBlock(id, fr.data); err != nil {
			return nil, err
		}
		fr.loaded = true
	}
	p.frames[id] = p.lru.PushFront(fr)
	return fr, nil
}

func (p *BufferPool) evictIfFull() error {
	for p.lru.Len() >= p.capacity {
		el := p.lru.Back()
		fr := el.Value.(*frame)
		if fr.dirty {
			if err := p.inner.WriteBlock(fr.id, fr.data); err != nil {
				return err
			}
		}
		p.lru.Remove(el)
		delete(p.frames, fr.id)
	}
	return nil
}

// ReadBlock implements BlockStore through the cache.
func (p *BufferPool) ReadBlock(id int, buf []float64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if err := checkBlockArgs(p, id, buf); err != nil {
		return err
	}
	fr, err := p.get(id, true)
	if err != nil {
		return err
	}
	copy(buf, fr.data)
	return nil
}

// ReadBlocks implements BatchReader. Cache state must evolve exactly as
// under the per-block loop — hits, misses, LRU order, and eviction victims
// all depend on probe order — so the probe pass installs a placeholder
// frame per miss in loop order (evicting as it goes), then one vectored
// inner read fills every placeholder, then the results are copied out.
// Clean placeholders never cause eviction writes, so the deferred fill
// reads the same inner state the loop would have.
func (p *BufferPool) ReadBlocks(ids []int, bufs [][]float64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if err := checkBatchArgs(p, ids, bufs); err != nil {
		return err
	}
	frames := make([]*frame, len(ids))
	var missIDs []int
	var missBufs [][]float64
	var placeholders []*frame
	for i, id := range ids {
		fr, err := p.get(id, false)
		if err != nil {
			p.uninstall(placeholders)
			return err
		}
		frames[i] = fr
		if !fr.loaded {
			fr.loaded = true
			missIDs = append(missIDs, id)
			missBufs = append(missBufs, fr.data)
			placeholders = append(placeholders, fr)
		}
	}
	if len(missIDs) > 0 {
		if err := ReadBlocksOf(p.inner, missIDs, missBufs); err != nil {
			p.uninstall(placeholders)
			return err
		}
	}
	for i, fr := range frames {
		copy(bufs[i], fr.data)
	}
	return nil
}

// uninstall removes this batch's placeholder frames after a failed
// vectored fill so no unloaded data is ever served as a hit.
func (p *BufferPool) uninstall(placeholders []*frame) {
	for _, fr := range placeholders {
		if el, ok := p.frames[fr.id]; ok && el.Value.(*frame) == fr {
			p.lru.Remove(el)
			delete(p.frames, fr.id)
		}
	}
}

// WriteBlock implements BlockStore through the cache (write-back: the
// underlying store sees the block only on eviction or Flush).
func (p *BufferPool) WriteBlock(id int, data []float64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if err := checkBlockArgs(p, id, data); err != nil {
		return err
	}
	// A full-block overwrite does not need the old contents.
	fr, err := p.get(id, false)
	if err != nil {
		return err
	}
	copy(fr.data, data)
	fr.dirty = true
	fr.loaded = true
	return nil
}

// WriteBlocks implements BatchWriter: the whole batch is staged in the
// cache under one lock acquisition, in slice order. Write-back means there
// is no inner batch to issue — the only inner traffic is dirty evictions,
// which happen at exactly the points the per-block loop would trigger
// them.
func (p *BufferPool) WriteBlocks(ids []int, data [][]float64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if err := checkBatchArgs(p, ids, data); err != nil {
		return err
	}
	for i, id := range ids {
		fr, err := p.get(id, false)
		if err != nil {
			return err
		}
		copy(fr.data, data[i])
		fr.dirty = true
		fr.loaded = true
	}
	return nil
}

// Flush writes all dirty blocks through without evicting them.
func (p *BufferPool) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flushLocked()
}

func (p *BufferPool) flushLocked() error {
	if p.closed {
		return ErrClosed
	}
	// One vectored write of every dirty frame, in LRU front-to-back order —
	// the same block sequence the per-block loop produced.
	var ids []int
	var data [][]float64
	var flushed []*frame
	for el := p.lru.Front(); el != nil; el = el.Next() {
		fr := el.Value.(*frame)
		if fr.dirty {
			ids = append(ids, fr.id)
			data = append(data, fr.data)
			flushed = append(flushed, fr)
		}
	}
	if len(ids) == 0 {
		return nil
	}
	if err := WriteBlocksOf(p.inner, ids, data); err != nil {
		return err
	}
	for _, fr := range flushed {
		fr.dirty = false
	}
	return nil
}

// Commit flushes dirty blocks and forwards the durability point to the
// wrapped store, so a transactional store under the pool seals everything
// the pool was holding into the batch.
func (p *BufferPool) Commit() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.flushLocked(); err != nil {
		return err
	}
	return CommitIfAble(p.inner)
}

// HitRate returns hits, misses, and the hit fraction (0 when unused).
func (p *BufferPool) HitRate() (hits, misses int64, rate float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := p.hits + p.misses
	if total == 0 {
		return p.hits, p.misses, 0
	}
	return p.hits, p.misses, float64(p.hits) / float64(total)
}

// Len returns the number of cached blocks.
func (p *BufferPool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lru.Len()
}

// Close flushes dirty blocks and closes the underlying store.
func (p *BufferPool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	if err := p.flushLocked(); err != nil {
		return err
	}
	p.closed = true
	return p.inner.Close()
}
