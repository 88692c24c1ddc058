// Package cache provides a sharded, goroutine-safe LRU block cache that
// fronts a storage.BlockStore for the concurrent query-serving path. It
// differs from storage.BufferPool — the single-threaded "available memory"
// model of the paper's experiments — in three ways that matter under
// parallel load:
//
//   - the key space is partitioned across independently locked shards, so
//     readers hitting different blocks do not contend on one mutex;
//   - concurrent misses on the same block are coalesced (singleflight): one
//     goroutine performs the disk read while the rest wait for its result,
//     so a thundering herd on a hot tile costs a single block I/O;
//   - it is a read cache with write-through invalidation, never holding
//     dirty data, so a crash loses nothing and maintenance batches stay the
//     exclusive property of the durable layer underneath.
//
// The wrapped store must itself be safe for concurrent use (storage.FileStore
// and storage.MemStore are; wrap anything stateful in storage.Locked).
package cache

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      int64 // reads served from a resident block
	Misses    int64 // reads that found no resident block (including waiters)
	Loads     int64 // reads issued to the underlying store (Misses coalesce)
	Evictions int64 // resident blocks discarded to make room
	Inflight  int64 // loads currently outstanding against the store
	Resident  int64 // blocks currently held
}

// HitRate returns the fraction of reads served from the cache (0 when
// unused).
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Sharded is the cache itself; it implements storage.BlockStore.
type Sharded struct {
	inner       storage.BlockStore
	blockSize   int
	shards      []*shard
	mask        uint
	capPerShard int

	hits      atomic.Int64
	misses    atomic.Int64
	loads     atomic.Int64
	evictions atomic.Int64
	inflight  atomic.Int64
}

type shard struct {
	mu       sync.Mutex
	lru      *list.List // front = most recently used; values are *entry
	entries  map[int]*list.Element
	inflight map[int]*call
	gen      uint64 // bumped by writes; stale loads are not installed
}

type entry struct {
	id   int
	data []float64
}

// call is one singleflight load; waiters block on wg and then read data/err.
type call struct {
	wg   sync.WaitGroup
	data []float64
	err  error
	gen  uint64
}

// New wraps inner with a sharded LRU cache holding up to capacity blocks
// spread over the given number of shards (rounded up to a power of two;
// pass 0 for a sensible default). The per-shard capacity is at least one
// block, so tiny capacities round up rather than down.
func New(inner storage.BlockStore, capacity, shards int) (*Sharded, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("cache: capacity %d", capacity)
	}
	if shards <= 0 {
		shards = 16
	}
	if shards > capacity {
		shards = capacity
	}
	n := 1
	for n < shards {
		n *= 2
	}
	per := capacity / n
	if per < 1 {
		per = 1
	}
	c := &Sharded{
		inner:       inner,
		blockSize:   inner.BlockSize(),
		shards:      make([]*shard, n),
		mask:        uint(n - 1),
		capPerShard: per,
	}
	for i := range c.shards {
		c.shards[i] = &shard{
			lru:      list.New(),
			entries:  make(map[int]*list.Element),
			inflight: make(map[int]*call),
		}
	}
	return c, nil
}

// BlockSize returns the wrapped store's block size.
func (c *Sharded) BlockSize() int { return c.blockSize }

func (c *Sharded) shardOf(id int) *shard {
	// Block ids are dense, so mixing the low bits spreads neighboring tiles
	// (which hot queries touch together) across shards.
	h := uint(id) * 0x9e3779b1
	return c.shards[(h>>4)&c.mask]
}

// ReadBlock serves a block from the cache, loading it at most once no
// matter how many goroutines miss on it concurrently.
func (c *Sharded) ReadBlock(id int, buf []float64) error {
	if err := c.checkArgs(id, len(buf)); err != nil {
		return err
	}
	sh := c.shardOf(id)
	sh.mu.Lock()
	if el, ok := sh.entries[id]; ok {
		copy(buf, el.Value.(*entry).data)
		sh.lru.MoveToFront(el)
		sh.mu.Unlock()
		c.hits.Add(1)
		return nil
	}
	c.misses.Add(1)
	if cl, ok := sh.inflight[id]; ok {
		// Someone else is already reading this block; wait for their result.
		sh.mu.Unlock()
		cl.wg.Wait()
		if cl.err != nil {
			return cl.err
		}
		if c.freshLoad(id, cl) {
			copy(buf, cl.data)
			return nil
		}
		// A write landed after that load was issued, so its result may
		// predate the write. Joining it would lose the write for a caller
		// doing read-modify-write (the maintenance engines); re-read
		// directly instead. The writer already invalidated the entry.
		c.loads.Add(1)
		c.inflight.Add(1)
		err := c.inner.ReadBlock(id, buf)
		c.inflight.Add(-1)
		return err
	}
	cl := &call{gen: sh.gen}
	cl.wg.Add(1)
	sh.inflight[id] = cl
	sh.mu.Unlock()

	c.inflight.Add(1)
	c.loads.Add(1)
	data := make([]float64, c.blockSize)
	err := c.inner.ReadBlock(id, data)
	cl.data, cl.err = data, err
	c.inflight.Add(-1)

	sh.mu.Lock()
	delete(sh.inflight, id)
	if err == nil && cl.gen == sh.gen {
		c.install(sh, id, data)
	}
	sh.mu.Unlock()
	cl.wg.Done()
	if err != nil {
		return err
	}
	copy(buf, data)
	return nil
}

// ReadBlocks implements storage.BatchReader. Every position is resolved
// the way ReadBlock would — hits copy out under the shard lock, misses
// join an existing singleflight load or register their own — but all the
// loads this call owns are issued to the inner store as one vectored read,
// so a cold burst over a tile run costs one device request instead of one
// per block. Waiting on loads owned by other goroutines happens after our
// own complete, which also resolves duplicate ids within the batch.
func (c *Sharded) ReadBlocks(ids []int, bufs [][]float64) error {
	for i, id := range ids {
		if err := c.checkArgs(id, len(bufs[i])); err != nil {
			return err
		}
	}
	sc := batchPool.Get().(*batchScratch)
	defer sc.release()
	calls := sc.resetCalls(len(ids)) // nil where the position was a hit
	for i, id := range ids {
		sh := c.shardOf(id)
		sh.mu.Lock()
		if el, ok := sh.entries[id]; ok {
			copy(bufs[i], el.Value.(*entry).data)
			sh.lru.MoveToFront(el)
			sh.mu.Unlock()
			c.hits.Add(1)
			continue
		}
		c.misses.Add(1)
		if cl, ok := sh.inflight[id]; ok {
			calls[i] = cl // someone (possibly this batch) is loading it
			sh.mu.Unlock()
			continue
		}
		cl := &call{gen: sh.gen}
		cl.wg.Add(1)
		sh.inflight[id] = cl
		sh.mu.Unlock()
		calls[i] = cl
		sc.own(id, make([]float64, c.blockSize), cl)
	}
	if len(sc.ownIDs) > 0 {
		c.inflight.Add(int64(len(sc.ownIDs)))
		c.loads.Add(int64(len(sc.ownIDs)))
		err := storage.ReadBlocksOf(c.inner, sc.ownIDs, sc.ownBufs)
		c.inflight.Add(int64(-len(sc.ownIDs)))
		for k, cl := range sc.ownCalls {
			id := sc.ownIDs[k]
			cl.data, cl.err = sc.ownBufs[k], err
			sh := c.shardOf(id)
			sh.mu.Lock()
			delete(sh.inflight, id)
			if err == nil && cl.gen == sh.gen {
				c.install(sh, id, sc.ownBufs[k])
			}
			sh.mu.Unlock()
			cl.wg.Done()
		}
	}
	for i, cl := range calls {
		if cl == nil {
			continue
		}
		cl.wg.Wait()
		if cl.err != nil {
			return cl.err
		}
		if c.freshLoad(ids[i], cl) {
			copy(bufs[i], cl.data)
			continue
		}
		// Stale in-flight result (a write intervened); re-read below.
		sc.retry(ids[i], bufs[i])
	}
	if len(sc.retryIDs) > 0 {
		c.loads.Add(int64(len(sc.retryIDs)))
		c.inflight.Add(int64(len(sc.retryIDs)))
		err := storage.ReadBlocksOf(c.inner, sc.retryIDs, sc.retryBufs)
		c.inflight.Add(int64(-len(sc.retryIDs)))
		if err != nil {
			return err
		}
	}
	return nil
}

// batchScratch is one ReadBlocks call's bookkeeping — the call behind each
// position, the loads it owns, the stale results it re-reads — pooled so
// that a batch of cache hits allocates nothing.
type batchScratch struct {
	calls, ownCalls    []*call
	ownIDs, retryIDs   []int
	ownBufs, retryBufs [][]float64
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// resetCalls returns n nil call slots.
func (sc *batchScratch) resetCalls(n int) []*call {
	sc.calls = append(sc.calls[:0], make([]*call, n)...)
	return sc.calls
}

// own records a load this batch issues itself.
func (sc *batchScratch) own(id int, buf []float64, cl *call) {
	sc.ownIDs = append(sc.ownIDs, id)
	sc.ownBufs = append(sc.ownBufs, buf)
	sc.ownCalls = append(sc.ownCalls, cl)
}

// retry records a position to re-read past a stale load.
func (sc *batchScratch) retry(id int, buf []float64) {
	sc.retryIDs = append(sc.retryIDs, id)
	sc.retryBufs = append(sc.retryBufs, buf)
}

// release drops the scratch's references to calls and buffers and returns
// it to the pool.
func (sc *batchScratch) release() {
	clear(sc.calls)
	clear(sc.ownCalls)
	clear(sc.ownBufs)
	clear(sc.retryBufs)
	sc.calls, sc.ownCalls = sc.calls[:0], sc.ownCalls[:0]
	sc.ownIDs, sc.retryIDs = sc.ownIDs[:0], sc.retryIDs[:0]
	sc.ownBufs, sc.retryBufs = sc.ownBufs[:0], sc.retryBufs[:0]
	batchPool.Put(sc)
}

// freshLoad reports whether a completed singleflight load is still
// current: no write to its shard has landed since the load registered.
// A load that raced a write may carry the pre-write value — installing
// it is already prevented by the generation check, but a waiter copying
// cl.data would still see stale data, which breaks read-your-writes for
// the one caller that requires it (maintenance's read-modify-write of
// delta tiles joining a load started by a concurrent serving read).
func (c *Sharded) freshLoad(id int, cl *call) bool {
	sh := c.shardOf(id)
	sh.mu.Lock()
	fresh := cl.gen == sh.gen
	sh.mu.Unlock()
	return fresh
}

// WriteBlocks implements storage.BatchWriter: one vectored write-through,
// then per-id invalidation with the same generation bump ReadBlock's
// stale-load protection relies on. Invalidation is performed even when the
// inner write fails — some of the batch may have landed, so dropping every
// touched id is the conservative coherent choice.
func (c *Sharded) WriteBlocks(ids []int, data [][]float64) error {
	for i, id := range ids {
		if err := c.checkArgs(id, len(data[i])); err != nil {
			return err
		}
	}
	err := storage.WriteBlocksOf(c.inner, ids, data)
	for _, id := range ids {
		sh := c.shardOf(id)
		sh.mu.Lock()
		sh.gen++
		if el, ok := sh.entries[id]; ok {
			sh.lru.Remove(el)
			delete(sh.entries, id)
		}
		sh.mu.Unlock()
	}
	return err
}

// install adds a loaded block to the shard, evicting from the cold end if
// the shard is over capacity. Caller holds sh.mu.
func (c *Sharded) install(sh *shard, id int, data []float64) {
	if el, ok := sh.entries[id]; ok {
		// A racing load installed it first; refresh and promote.
		copy(el.Value.(*entry).data, data)
		sh.lru.MoveToFront(el)
		return
	}
	sh.entries[id] = sh.lru.PushFront(&entry{id: id, data: data})
	for sh.lru.Len() > c.capPerShard {
		back := sh.lru.Back()
		sh.lru.Remove(back)
		delete(sh.entries, back.Value.(*entry).id)
		c.evictions.Add(1)
	}
}

// WriteBlock writes through to the underlying store and invalidates the
// cached copy. The generation bump also prevents any load that sampled the
// block before this write from installing its now-stale result.
func (c *Sharded) WriteBlock(id int, data []float64) error {
	if err := c.checkArgs(id, len(data)); err != nil {
		return err
	}
	err := c.inner.WriteBlock(id, data)
	sh := c.shardOf(id)
	sh.mu.Lock()
	sh.gen++
	if el, ok := sh.entries[id]; ok {
		sh.lru.Remove(el)
		delete(sh.entries, id)
	}
	sh.mu.Unlock()
	return err
}

func (c *Sharded) checkArgs(id, n int) error {
	if id < 0 {
		return fmt.Errorf("cache: negative block id %d", id)
	}
	if n != c.blockSize {
		return fmt.Errorf("cache: buffer length %d does not match block size %d", n, c.blockSize)
	}
	return nil
}

// Invalidate empties the cache; subsequent reads reload from the store.
func (c *Sharded) Invalidate() {
	for _, sh := range c.shards {
		sh.mu.Lock()
		sh.gen++
		sh.lru.Init()
		sh.entries = make(map[int]*list.Element)
		sh.mu.Unlock()
	}
}

// Drop evicts a single block id, bumping its shard's generation so a
// concurrent in-flight load of the stale contents is not installed. The
// epoch layer calls this when a freed physical block is reused for a new
// epoch — the only invalidation an epoch-qualified cache ever needs, since
// a physical id is otherwise never rebound while referenced.
func (c *Sharded) Drop(id int) {
	if id < 0 {
		return
	}
	sh := c.shardOf(id)
	sh.mu.Lock()
	sh.gen++
	if el, ok := sh.entries[id]; ok {
		sh.lru.Remove(el)
		delete(sh.entries, id)
	}
	sh.mu.Unlock()
}

// Len returns the number of resident blocks.
func (c *Sharded) Len() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the cache counters.
func (c *Sharded) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Loads:     c.loads.Load(),
		Evictions: c.evictions.Load(),
		Inflight:  c.inflight.Load(),
		Resident:  int64(c.Len()),
	}
}

// Sync forwards to the wrapped store.
func (c *Sharded) Sync() error { return storage.SyncIfAble(c.inner) }

// Truncate discards every cached block and forwards to the wrapped store.
func (c *Sharded) Truncate() error {
	err := storage.TruncateIfAble(c.inner)
	c.Invalidate()
	return err
}

// Commit forwards a durability point to the wrapped store.
func (c *Sharded) Commit() error { return storage.CommitIfAble(c.inner) }

// Close closes the wrapped store.
func (c *Sharded) Close() error { return c.inner.Close() }

// MappedReads forwards the inner stack's mapped-read counter (cache
// hits touch no device and so do not move it).
func (c *Sharded) MappedReads() int64 { return storage.MappedReadsOf(c.inner) }
