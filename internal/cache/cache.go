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
// It also lends (storage.Lender): a lending read of a resident block hands
// out the slot itself, pinned until the borrower's lease returns, instead
// of copying it. A pinned slot is never overwritten. Lending changes no
// counter and no eviction: a lent slot that is evicted, dropped or
// invalidated leaves the index as it would have, and is parked until its
// last pin returns, when its memory goes back to the free list. So a shard
// holds at most its capacity plus the largest number of its slots lent at
// once (Stats.Lent counts the slots pinned now).
//
// The wrapped store must itself be safe for concurrent use (storage.FileStore
// and storage.MemStore are; wrap anything stateful in storage.Locked).
package cache

import (
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
	Lent      int64 // slots currently pinned by a lease (resident or parked)
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
	lent      atomic.Int64
}

// shard is one independently locked LRU over a slab of block-sized slots.
// The slab grows a chunk of slabChunk slots at a time, never copied, up to
// the shard's capacity, so an idle cache commits no memory; once full, a
// miss reuses the evicted slot and a spare call and allocates nothing.
// Only while a lent slot is parked does a miss grow the slab past the
// capacity, one slot at a time.
type shard struct {
	mu       sync.Mutex
	idx      int           // the shard's index in Sharded.shards, the high half of its pins
	rest     []float64     // the newest slab chunk's slots not yet handed out
	slots    []slot        // slots[0] heads the LRU list: next is the newest, prev the oldest
	ids      map[int]int32 // resident block id -> slot
	free     []int32       // slots emptied by writes, drops and invalidation, and unpinned parked ones
	inflight map[int]*call
	spare    []*call // finished calls, reused by the next load
	gen      uint64  // bumped by writes; stale loads are not installed
}

// slabChunk is the number of slots a shard's slab grows by at once.
const slabChunk = 64

// slot is a node of its shard's circular, intrusive LRU list. pins counts
// the leases holding its frame; a pinned slot that left the index is
// parked: off the list, on no free list, until pins drops to zero.
type slot struct {
	id         int
	prev, next int32
	pins       int32
	parked     bool
	frame      []float64
}

// call is one singleflight load. Its owner reads the block into its own
// caller's buffer and installs it; waiters block on wg, then copy the
// installed slot.
type call struct {
	wg      sync.WaitGroup
	err     error
	gen     uint64
	waiters int           // callers parked on wg; guarded by the shard lock
	batch   *batchScratch // the owning ReadBlocks call: its duplicates copy its buffer
	pos     int           // the owner's position in that call
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
			idx:      i,
			slots:    make([]slot, 1),
			ids:      make(map[int]int32),
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
	ids, bufs := [1]int{id}, [1][]float64{buf}
	return c.ReadBlocks(ids[:], bufs[:])
}

// ReadBlocks implements storage.BatchReader: LendBlocks without a lease,
// every hit copied out.
func (c *Sharded) ReadBlocks(ids []int, bufs [][]float64) error {
	return c.LendBlocks(ids, bufs, nil)
}

// LendBlocks implements storage.Lender. A hit under a lease replaces
// bufs[i] with the resident slot itself, pinned under l; without one it
// copies out under the shard lock. Misses join an existing singleflight
// load or register their own, and are read into the caller's buffers and
// installed by copy, lease or not. All the loads this call owns are issued
// to the inner store as one vectored read straight into the caller's
// buffers, so a cold burst over a tile run costs one device request
// instead of one per block. Waiting on loads owned by other goroutines
// happens after our own complete, which also resolves duplicate ids within
// the batch.
func (c *Sharded) LendBlocks(ids []int, bufs [][]float64, l *storage.Lease) error {
	for i, id := range ids {
		if err := c.checkArgs(id, len(bufs[i])); err != nil {
			return err
		}
	}
	var sc *batchScratch // taken at the first miss: a batch of hits never needs it
	for i, id := range ids {
		sh := c.shardOf(id)
		sh.mu.Lock()
		if s, ok := sh.ids[id]; ok {
			if l != nil {
				bufs[i] = sh.slots[s].frame
				c.pin(sh, s, l)
			} else {
				copy(bufs[i], sh.slots[s].frame)
			}
			sh.unlink(s)
			sh.pushFront(s)
			sh.mu.Unlock()
			c.hits.Add(1)
			continue
		}
		c.misses.Add(1)
		if sc == nil {
			sc = batchPool.Get().(*batchScratch)
		}
		if cl, ok := sh.inflight[id]; ok {
			cl.waiters++ // someone (possibly this batch) is loading it
			sh.mu.Unlock()
			sc.waitPos = append(sc.waitPos, i)
			sc.waitCalls = append(sc.waitCalls, cl)
			continue
		}
		cl := sh.newCall(sc, i)
		sh.inflight[id] = cl
		sh.mu.Unlock()
		sc.ownIDs = append(sc.ownIDs, id)
		sc.ownBufs = append(sc.ownBufs, bufs[i])
		sc.ownCalls = append(sc.ownCalls, cl)
	}
	if sc == nil {
		return nil
	}
	defer sc.release()
	var err error
	if n := int64(len(sc.ownIDs)); n > 0 {
		c.inflight.Add(n)
		c.loads.Add(n)
		err = storage.ReadBlocksOf(c.inner, sc.ownIDs, sc.ownBufs)
		c.inflight.Add(-n)
		for k, cl := range sc.ownCalls {
			id := sc.ownIDs[k]
			sh := c.shardOf(id)
			sh.mu.Lock()
			delete(sh.inflight, id)
			if err == nil && cl.gen == sh.gen {
				c.install(sh, id, sc.ownBufs[k])
			}
			cl.err = err
			cl.wg.Done()
			sh.recycle(cl)
			sh.mu.Unlock()
		}
	}
	for k, cl := range sc.waitCalls {
		i, id := sc.waitPos[k], ids[sc.waitPos[k]]
		cl.wg.Wait()
		sh := c.shardOf(id)
		sh.mu.Lock()
		s, resident := sh.ids[id]
		switch {
		case cl.err != nil:
			if err == nil {
				err = cl.err
			}
		case cl.batch == sc:
			copy(bufs[i], bufs[cl.pos])
		case resident && cl.gen == sh.gen:
			copy(bufs[i], sh.slots[s].frame)
		default:
			// A write landed after that load was issued, so its result may
			// predate the write, or the block was evicted before we got to
			// copy it. Re-read directly: joining a stale load would lose the
			// write for a caller doing read-modify-write (the maintenance
			// engines). The writer already invalidated the entry.
			sc.retryIDs = append(sc.retryIDs, id)
			sc.retryBufs = append(sc.retryBufs, bufs[i])
		}
		cl.waiters--
		sh.recycle(cl)
		sh.mu.Unlock()
	}
	if n := int64(len(sc.retryIDs)); err == nil && n > 0 {
		c.loads.Add(n)
		c.inflight.Add(n)
		err = storage.ReadBlocksOf(c.inner, sc.retryIDs, sc.retryBufs)
		c.inflight.Add(-n)
	}
	return err
}

// batchScratch is one ReadBlocks call's bookkeeping — the loads it owns,
// the loads of others it waits on, the stale results it re-reads — pooled
// so that a batch of misses allocates nothing.
type batchScratch struct {
	ownIDs, retryIDs    []int
	ownBufs, retryBufs  [][]float64
	ownCalls, waitCalls []*call
	waitPos             []int
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// release drops the scratch's references to calls and buffers and returns
// it to the pool.
func (sc *batchScratch) release() {
	clear(sc.ownCalls)
	clear(sc.waitCalls)
	clear(sc.ownBufs)
	clear(sc.retryBufs)
	sc.ownCalls, sc.waitCalls, sc.waitPos = sc.ownCalls[:0], sc.waitCalls[:0], sc.waitPos[:0]
	sc.ownIDs, sc.retryIDs = sc.ownIDs[:0], sc.retryIDs[:0]
	sc.ownBufs, sc.retryBufs = sc.ownBufs[:0], sc.retryBufs[:0]
	batchPool.Put(sc)
}

// newCall registers a load owned by position pos of batch sc, reusing a
// spare call when there is one. Caller holds sh.mu.
func (sh *shard) newCall(sc *batchScratch, pos int) *call {
	var cl *call
	if n := len(sh.spare); n > 0 {
		cl, sh.spare = sh.spare[n-1], sh.spare[:n-1]
	} else {
		cl = new(call)
	}
	cl.err, cl.gen, cl.batch, cl.pos = nil, sh.gen, sc, pos
	cl.wg.Add(1)
	return cl
}

// recycle returns a finished call to the spare list once nobody holds it:
// the owner calls it after wg.Done, each waiter after dropping its count,
// so whichever comes last recycles. Caller holds sh.mu.
func (sh *shard) recycle(cl *call) {
	if cl.waiters == 0 {
		cl.err, cl.batch = nil, nil
		sh.spare = append(sh.spare, cl)
	}
}

// install copies a loaded block into a slot and makes it the most recently
// used. A full shard evicts its least recently used block first and reuses
// its slot, unless the victim is lent: then it is parked and the block
// takes a free slot or a new one, as it does in a shard below capacity.
// The id is not resident: only the owner of its one registered load
// installs it. Caller holds sh.mu.
func (c *Sharded) install(sh *shard, id int, data []float64) {
	var s int32
	if len(sh.ids) >= c.capPerShard {
		s = sh.slots[0].prev
		sh.unlink(s)
		delete(sh.ids, sh.slots[s].id)
		c.evictions.Add(1)
		if sh.slots[s].pins > 0 {
			sh.slots[s].parked, s = true, 0
		}
	}
	switch {
	case s > 0:
	case len(sh.free) > 0:
		s, sh.free = sh.free[len(sh.free)-1], sh.free[:len(sh.free)-1]
	default:
		s = c.grow(sh)
	}
	sh.slots[s].id = id
	sh.ids[id] = s
	copy(sh.slots[s].frame, data)
	sh.pushFront(s)
}

// grow adds a slot to the shard and returns it, cutting its frame from the
// newest slab chunk: a new chunk holds slabChunk slots, fewer when that
// would pass the capacity, and a single one past it. Caller holds sh.mu.
func (c *Sharded) grow(sh *shard) int32 {
	if len(sh.rest) == 0 {
		n := max(min(slabChunk, c.capPerShard-(len(sh.slots)-1)), 1)
		sh.rest = make([]float64, n*c.blockSize)
	}
	s := int32(len(sh.slots))
	sh.slots = append(sh.slots, slot{frame: sh.rest[:c.blockSize:c.blockSize]})
	sh.rest = sh.rest[c.blockSize:]
	return s
}

// pin lends slot s under l. Caller holds sh.mu.
func (c *Sharded) pin(sh *shard, s int32, l *storage.Lease) {
	if sh.slots[s].pins++; sh.slots[s].pins == 1 {
		c.lent.Add(1)
	}
	l.Hold(c, uint64(sh.idx)<<32|uint64(s))
}

// Unpin implements storage.Unpinner: a lease gives back its pins, and a
// parked slot whose last pin this was goes back to the free list.
func (c *Sharded) Unpin(pins []uint64) {
	for _, p := range pins {
		sh, s := c.shards[p>>32], int32(uint32(p))
		sh.mu.Lock()
		if sh.slots[s].pins--; sh.slots[s].pins == 0 {
			c.lent.Add(-1)
			if sh.slots[s].parked {
				sh.slots[s].parked = false
				sh.free = append(sh.free, s)
			}
		}
		sh.mu.Unlock()
	}
}

// release takes slot s, just removed from the index, out of service: to
// the free list, or parked while it is lent. Caller holds sh.mu.
func (sh *shard) release(s int32) {
	if sh.slots[s].pins > 0 {
		sh.slots[s].parked = true
		return
	}
	sh.free = append(sh.free, s)
}

// unlink takes slot s out of the LRU list. Caller holds sh.mu.
func (sh *shard) unlink(s int32) {
	prev, next := sh.slots[s].prev, sh.slots[s].next
	sh.slots[prev].next, sh.slots[next].prev = next, prev
}

// pushFront makes slot s the most recently used. Caller holds sh.mu.
func (sh *shard) pushFront(s int32) {
	next := sh.slots[0].next
	sh.slots[s].prev, sh.slots[s].next = 0, next
	sh.slots[next].prev, sh.slots[0].next = s, s
}

// drop discards id's resident copy, if any, and bumps its shard's
// generation so a load that sampled the block before the caller's write is
// not installed.
func (c *Sharded) drop(id int) {
	sh := c.shardOf(id)
	sh.mu.Lock()
	sh.gen++
	if s, ok := sh.ids[id]; ok {
		sh.unlink(s)
		delete(sh.ids, id)
		sh.release(s)
	}
	sh.mu.Unlock()
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
		c.drop(id)
	}
	return err
}

// WriteBlock writes through to the underlying store and invalidates the
// cached copy. The generation bump also prevents any load that sampled the
// block before this write from installing its now-stale result.
func (c *Sharded) WriteBlock(id int, data []float64) error {
	if err := c.checkArgs(id, len(data)); err != nil {
		return err
	}
	err := c.inner.WriteBlock(id, data)
	c.drop(id)
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
		for s := sh.slots[0].next; s != 0; s = sh.slots[s].next {
			sh.release(s)
		}
		sh.slots[0] = slot{}
		clear(sh.ids)
		sh.mu.Unlock()
	}
}

// Drop evicts a single block id, bumping its shard's generation so a
// concurrent in-flight load of the stale contents is not installed. The
// epoch layer calls this when a freed physical block is reused for a new
// epoch — the only invalidation an epoch-qualified cache ever needs, since
// a physical id is otherwise never rebound while referenced.
func (c *Sharded) Drop(id int) {
	if id >= 0 {
		c.drop(id)
	}
}

// Len returns the number of resident blocks.
func (c *Sharded) Len() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += len(sh.ids)
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
		Lent:      c.lent.Load(),
	}
}

// Close closes the wrapped store.
func (c *Sharded) Close() error { return c.inner.Close() }
