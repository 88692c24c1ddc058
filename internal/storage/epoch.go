package storage

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
)

// This file is the MVCC epoch layer: a per-epoch block-id remap table
// between the tile map (logical block ids) and the physical store, so
// maintenance writes go to freshly allocated physical blocks for the next
// epoch while readers keep resolving the current epoch's table through a
// refcounted Snapshot. The flip is a single Commit on the write path: the
// dirty table pages and superblock join the same journal group as the data
// blocks, so a crash recovers to exactly the old or exactly the new epoch.
//
// Physical layout (absolute block ids on the underlying store):
//
//	[0, hdr)             superblock: magic, version, epoch, logical, pages
//	[hdr, hdr+pages)     remap table, blockSize entries per page; an entry
//	                     is uint64(phys+1) as float64 bits, 0 = unmapped
//	[hdr+pages, ...)     data blocks, copy-on-write allocated
//
// All superblock and table slots hold raw uint64 bit patterns reinterpreted
// as float64 (math.Float64frombits); they round-trip through every block
// store bit-exactly and are never used arithmetically.

// versionedMagic identifies a Versioned superblock ("SSEPOCH1").
const versionedMagic uint64 = 0x5353_4550_4f43_4831

// versionedVersion is the on-media format version.
const versionedVersion uint64 = 1

// superSlots is the number of superblock value slots (magic, version,
// epoch, logical, pages).
const superSlots = 5

// ErrSnapshotReadOnly is returned by writes through a Snapshot: a pinned
// epoch is immutable by construction.
var ErrSnapshotReadOnly = errors.New("storage: snapshot is read-only")

// epochTable is one immutable committed remap: logical block id -> physical
// block id (-1 = unmapped, reads as zeros), held as blockSize-entry pages
// that mirror the on-media table pages. A flip shares every page it left
// clean with its predecessor and copies only the dirty ones, so publishing
// an epoch costs what its batch costs. refs counts pinned Snapshots; dead
// lists the physical blocks superseded on the way to this epoch that the
// preceding live table still references (see retireLocked). Both are
// guarded by the owning Versioned's mu.
type epochTable struct {
	epoch uint64
	pages [][]int64
	refs  int
	dead  []int
}

// phys resolves a logical id in tables of pageSize-entry pages.
func (t *epochTable) phys(id, pageSize int) int64 {
	return t.pages[id/pageSize][id%pageSize]
}

// freeBlock marks, in Versioned.birth, a data block that sits on the free
// list; no epoch is ever numbered that high.
const freeBlock = ^uint64(0)

// Versioned interposes the epoch remap between logical block ids (what the
// tile map addresses) and a physical store. Writes are copy-on-write: the
// first write to a logical block in an epoch allocates a fresh physical
// block (from the free list, else the high-water mark), so no live
// snapshot's blocks are ever overwritten. Commit seals the building epoch —
// data, dirty table pages, and superblock in one batch on the write path —
// and atomically publishes the new table.
//
// Reads and writes through the Versioned itself resolve the building
// overlay first (read-your-writes for the maintenance engines), then the
// current table. Concurrent readers must pin an epoch with Acquire and read
// through the returned Snapshot, which resolves one immutable table against
// the read path for its whole lifetime.
type Versioned struct {
	write BlockStore // full mutation path (device, journal, staging)
	read  BlockStore // concurrent committed-read path; == write when shared

	logical  int // fixed logical block-id space
	pageSize int // remap entries per table page: the block size
	hdr      int // superblock spread over this many physical blocks
	pages    int // remap table pages
	dataBase int // first data block id

	mu      sync.Mutex
	cur     *epochTable      // current committed table (last of tables)
	tables  []*epochTable    // live tables by ascending epoch: pinned old epochs, then cur
	overlay map[int]int      // building epoch: logical -> phys
	dirty   map[int]struct{} // table pages touched by the overlay
	// birth has one entry per data block below the allocation high-water
	// mark (dataBase+len(birth)): the epoch whose batch allocated the block,
	// or freeBlock. It is volatile — blocks found mapped at open get birth 0,
	// which is at most every epoch a table can be pinned at afterwards.
	birth   []uint64
	free    []int          // min-heap of the freeBlock ids (plus stale ids at or above the mark)
	nfree   int            // freeBlock entries of birth
	onReuse func(phys int) // invoked when a physical id is handed to a new epoch
	closed  bool
}

// NewVersioned builds the epoch layer over a single store used for both
// reads and writes (the maintenance configuration). logical is the fixed
// number of logical blocks (the tiling's block count). The superblock and
// remap table are loaded if present; a fresh store starts at epoch 0 with
// every logical block unmapped.
func NewVersioned(store BlockStore, logical int) (*Versioned, error) {
	return NewVersionedSplit(store, store, logical)
}

// NewVersionedSplit is NewVersioned with distinct write and read paths: all
// mutations, table I/O, and commits go through write; Snapshot reads go
// through read. Both must bottom out at the same physical medium. Close
// closes the read path only when it is distinct (the serving composition
// threads the write path through the read chain).
func NewVersionedSplit(write, read BlockStore, logical int) (*Versioned, error) {
	if logical <= 0 {
		return nil, fmt.Errorf("storage: versioned store needs a positive logical block count, got %d", logical)
	}
	bs := write.BlockSize()
	if read.BlockSize() != bs {
		return nil, fmt.Errorf("storage: versioned read block size %d != write block size %d", read.BlockSize(), bs)
	}
	v := &Versioned{
		write:    write,
		read:     read,
		logical:  logical,
		pageSize: bs,
		hdr:      (superSlots + bs - 1) / bs,
		pages:    (logical + bs - 1) / bs,
		overlay:  make(map[int]int),
		dirty:    make(map[int]struct{}),
	}
	v.dataBase = v.hdr + v.pages
	if err := v.load(); err != nil {
		return nil, err
	}
	return v, nil
}

// OnReuse registers a hook called (under the allocation lock) whenever a
// physical block is handed to a new epoch: off the free list, or at the
// high-water mark, which comes down past a freed run at the top of the file
// so that growing it re-issues ids that have held another epoch's data. The
// serving cache drops its entry for that physical id here, which is the
// only cache invalidation the epoch layer ever needs: a physical id is
// never rebound while any live epoch still references it.
func (v *Versioned) OnReuse(fn func(phys int)) { v.onReuse = fn }

// load reads the superblock and remap table through the write path (open
// runs before any concurrency) and rebuilds the free list and high-water
// mark by sweeping the table — the one place the whole table is walked.
func (v *Versioned) load() error {
	bs := v.write.BlockSize()
	super := make([]float64, v.hdr*bs)
	frames := SliceFrames(super, v.hdr, bs)
	ids := make([]int, v.hdr)
	for i := range ids {
		ids[i] = i
	}
	if err := ReadBlocksOf(v.write, ids, frames); err != nil {
		return fmt.Errorf("storage: read versioned superblock: %w", err)
	}
	magic := math.Float64bits(super[0])
	// Every page is full-size; slots past logical stay unmapped.
	slab := make([]int64, v.pages*bs)
	for i := range slab {
		slab[i] = -1
	}
	table := make([][]int64, v.pages)
	for i := range table {
		table[i] = slab[i*bs : (i+1)*bs : (i+1)*bs]
	}
	var epoch uint64
	high := v.dataBase
	if magic != 0 { // magic 0 is a fresh store: epoch 0, everything unmapped
		if magic != versionedMagic {
			return fmt.Errorf("storage: bad versioned superblock magic %#x", magic)
		}
		if ver := math.Float64bits(super[1]); ver != versionedVersion {
			return fmt.Errorf("storage: versioned format version %d, want %d", ver, versionedVersion)
		}
		epoch = math.Float64bits(super[2])
		if l := math.Float64bits(super[3]); int(l) != v.logical {
			return fmt.Errorf("storage: versioned superblock logical %d, tiling has %d", l, v.logical)
		}
		if p := math.Float64bits(super[4]); int(p) != v.pages {
			return fmt.Errorf("storage: versioned superblock pages %d, want %d", p, v.pages)
		}
		pageIDs := make([]int, v.pages)
		for i := range pageIDs {
			pageIDs[i] = v.hdr + i
		}
		media := SliceFrames(make([]float64, v.pages*bs), v.pages, bs)
		if err := ReadBlocksOf(v.write, pageIDs, media); err != nil {
			return fmt.Errorf("storage: read versioned remap table: %w", err)
		}
		for i := 0; i < v.logical; i++ {
			raw := math.Float64bits(media[i/bs][i%bs])
			if raw == 0 {
				continue
			}
			p := int64(raw) - 1
			if p < int64(v.dataBase) {
				return fmt.Errorf("storage: versioned table maps logical %d to reserved physical %d", i, p)
			}
			slab[i] = p
			if int(p)+1 > high {
				high = int(p) + 1
			}
		}
	}
	v.cur = &epochTable{epoch: epoch, pages: table}
	v.tables = []*epochTable{v.cur}

	// The sweep: a data block below the mark that the table does not map is
	// free. Ascending ids are already a valid min-heap.
	v.birth = make([]uint64, high-v.dataBase)
	for i := range v.birth {
		v.birth[i] = freeBlock
	}
	for i, p := range slab[:v.logical] {
		if p < 0 {
			continue
		}
		// Reclamation frees a block when the one logical id mapping it is
		// rewritten, so a table aliasing two ids to one block is corrupt.
		if v.birth[int(p)-v.dataBase] != freeBlock {
			return fmt.Errorf("storage: versioned table maps logical %d to physical %d, which another logical block already maps", i, p)
		}
		v.birth[int(p)-v.dataBase] = 0
	}
	for i, b := range v.birth {
		if b == freeBlock {
			v.free = append(v.free, v.dataBase+i)
			v.nfree++
		}
	}
	return nil
}

// BlockSize returns the physical store's block size (logical and physical
// blocks are the same size; only the id spaces differ).
func (v *Versioned) BlockSize() int { return v.write.BlockSize() }

// Logical returns the fixed logical block-id space.
func (v *Versioned) Logical() int { return v.logical }

// PhysExtent returns the physical block-id high-water mark — the extent a
// scrubber should walk (superblock, table pages, and allocated data).
func (v *Versioned) PhysExtent() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.markLocked()
}

// markLocked is the allocation high-water mark. Caller holds mu.
func (v *Versioned) markLocked() int { return v.dataBase + len(v.birth) }

// Epoch returns the current committed epoch.
func (v *Versioned) Epoch() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.cur.epoch
}

func (v *Versioned) checkLogical(id int) error {
	if id < 0 || id >= v.logical {
		return fmt.Errorf("storage: logical block id %d out of range [0, %d)", id, v.logical)
	}
	return nil
}

// resolve returns the physical id the building epoch sees for a logical id
// (overlay first, then the current table), or -1 when unmapped; staged
// reports an overlay hit — a block written since the last commit.
func (v *Versioned) resolve(id int) (phys int64, staged bool) {
	if phys, ok := v.overlay[id]; ok {
		return int64(phys), true
	}
	return v.cur.phys(id, v.pageSize), false
}

// ReadBlock reads a logical block as the building epoch sees it: staged
// overlay writes are visible immediately (read-your-writes for the
// maintenance engines' read-modify-write), everything else resolves the
// current table. Unmapped blocks read as zeros without touching the device.
// An overlay block is read as a staged read (StagedReader), so a write path
// whose plain reads see only committed frames still returns it.
func (v *Versioned) ReadBlock(id int, buf []float64) error {
	if err := checkBlockArgs(v, id, buf); err != nil {
		return err
	}
	if err := v.checkLogical(id); err != nil {
		return err
	}
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		return ErrClosed
	}
	phys, staged := v.resolve(id)
	v.mu.Unlock()
	switch {
	case phys < 0:
		ZeroFill(buf)
		return nil
	case staged:
		return ReadStagedBlocksOf(v.write, []int{int(phys)}, [][]float64{buf})
	}
	return v.write.ReadBlock(int(phys), buf)
}

// ReadBlocks implements BatchReader: every mapped id is resolved and
// fetched from the write path, the committed ones as one vectored read and
// the overlay's as one staged read; unmapped ids zero-fill.
func (v *Versioned) ReadBlocks(ids []int, bufs [][]float64) error {
	if err := checkBatchArgs(v, ids, bufs); err != nil {
		return err
	}
	for _, id := range ids {
		if err := v.checkLogical(id); err != nil {
			return err
		}
	}
	sc := remapPool.Get().(*remapScratch)
	defer sc.release()
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		return ErrClosed
	}
	for i, id := range ids {
		if phys, staged := v.resolve(id); phys >= 0 {
			sc.add(staged, int(phys), bufs[i])
		} else {
			ZeroFill(bufs[i])
		}
	}
	v.mu.Unlock()
	if err := ReadBlocksOf(v.write, sc.ids, sc.bufs); err != nil {
		return err
	}
	return ReadStagedBlocksOf(v.write, sc.stagedIDs, sc.stagedBufs)
}

// remapScratch is one batch read's physical ids and buffers after the
// remap — committed blocks, and on the builder's path the staged ones
// apart — pooled so that a read through an epoch allocates nothing.
type remapScratch struct {
	ids, stagedIDs   []int
	bufs, stagedBufs [][]float64
}

var remapPool = sync.Pool{New: func() any { return new(remapScratch) }}

// add files one resolved block under the read it belongs to.
func (sc *remapScratch) add(staged bool, phys int, buf []float64) {
	if staged {
		sc.stagedIDs = append(sc.stagedIDs, phys)
		sc.stagedBufs = append(sc.stagedBufs, buf)
		return
	}
	sc.ids = append(sc.ids, phys)
	sc.bufs = append(sc.bufs, buf)
}

// release empties the scratch, dropping its references to the caller's
// buffers, and returns it to the pool.
func (sc *remapScratch) release() {
	clear(sc.bufs)
	clear(sc.stagedBufs)
	sc.ids, sc.bufs = sc.ids[:0], sc.bufs[:0]
	sc.stagedIDs, sc.stagedBufs = sc.stagedIDs[:0], sc.stagedBufs[:0]
	remapPool.Put(sc)
}

// allocLocked picks the physical block for a logical write in the building
// epoch: a block already written this epoch is rewritten in place (it is
// invisible until Commit), otherwise the lowest free block is reused,
// otherwise the file grows at the high-water mark. Either way the reuse
// hook drops stale cache entries for the id first. Caller holds mu.
func (v *Versioned) allocLocked(id int) int {
	if phys, ok := v.overlay[id]; ok {
		return phys
	}
	var phys int
	if v.nfree > 0 {
		phys = v.popFreeLocked()
	} else {
		phys = v.markLocked()
		v.birth = append(v.birth, 0)
	}
	v.birth[phys-v.dataBase] = v.cur.epoch + 1
	if v.onReuse != nil {
		v.onReuse(phys)
	}
	v.overlay[id] = phys
	v.dirty[id/v.pageSize] = struct{}{}
	return phys
}

// freeLocked puts a data block no live table references on the free list.
// Callers finish a round of frees with lowerMarkLocked. Caller holds mu.
func (v *Versioned) freeLocked(phys int) {
	v.birth[phys-v.dataBase] = freeBlock
	v.nfree++
	h := append(v.free, phys)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	v.free = h
}

// popFreeLocked takes the lowest free data block off the free list. Caller
// holds mu and has checked nfree > 0.
func (v *Versioned) popFreeLocked() int {
	h := v.free
	phys := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && h[l] < h[least] {
			least = l
		}
		if r := 2*i + 2; r < n && h[r] < h[least] {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	v.free = h
	v.nfree--
	v.dropStaleLocked()
	return phys
}

// lowerMarkLocked lowers the high-water mark past a freed run at the top
// of the file, so the file stops growing (and a scrubber stops walking)
// where the live data ends. The run's heap entries go stale rather than
// being dug out: they sort after every id below the mark, and the mark only
// rises again once the free list is empty, which discards them. Caller
// holds mu.
func (v *Versioned) lowerMarkLocked() {
	n := len(v.birth)
	for n > 0 && v.birth[n-1] == freeBlock {
		n--
		v.nfree--
	}
	v.birth = v.birth[:n]
	v.dropStaleLocked()
}

// dropStaleLocked empties the heap when all it holds is stale. Caller holds mu.
func (v *Versioned) dropStaleLocked() {
	if v.nfree == 0 {
		v.free = v.free[:0]
	}
}

// WriteBlock stages a copy-on-write write of a logical block into the
// building epoch. The data reaches a physical block no live epoch
// references, so concurrent snapshot readers are undisturbed.
func (v *Versioned) WriteBlock(id int, data []float64) error {
	if err := checkBlockArgs(v, id, data); err != nil {
		return err
	}
	if err := v.checkLogical(id); err != nil {
		return err
	}
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		return ErrClosed
	}
	phys := v.allocLocked(id)
	v.mu.Unlock()
	return v.write.WriteBlock(phys, data)
}

// WriteBlocks implements BatchWriter: the whole batch is allocated under
// one lock acquisition and forwarded as one vectored write.
func (v *Versioned) WriteBlocks(ids []int, data [][]float64) error {
	if err := checkBatchArgs(v, ids, data); err != nil {
		return err
	}
	for _, id := range ids {
		if err := v.checkLogical(id); err != nil {
			return err
		}
	}
	physIDs := make([]int, len(ids))
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		return ErrClosed
	}
	for i, id := range ids {
		physIDs[i] = v.allocLocked(id)
	}
	v.mu.Unlock()
	return WriteBlocksOf(v.write, physIDs, data)
}

// encodeSuper fills the superblock frames for the given epoch.
func (v *Versioned) encodeSuper(frames [][]float64, epoch uint64) {
	vals := [superSlots]uint64{versionedMagic, versionedVersion, epoch, uint64(v.logical), uint64(v.pages)}
	bs := v.write.BlockSize()
	for i, raw := range vals {
		frames[i/bs][i%bs] = math.Float64frombits(raw)
	}
}

// Commit seals the building epoch: the dirty remap-table pages and the
// superblock (stamped epoch+1) are written through the write path and the
// whole group — data blocks, table pages, superblock — is committed as one
// batch. Only after the medium accepted the batch is the new table
// published; the blocks the flip superseded return to the free list once no
// pinned table references them. The flip's work — in memory and on the
// medium — is proportional to the batch, never to the logical space beyond
// one slice header per table page.
//
// With nothing staged, Commit degenerates to forwarding the durability
// point (so idle flushes stay cheap and epoch-free).
func (v *Versioned) Commit() error {
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		return ErrClosed
	}
	if len(v.overlay) == 0 {
		v.mu.Unlock()
		return CommitIfAble(v.write)
	}
	bs := v.write.BlockSize()
	cur := v.cur
	next := &epochTable{
		epoch: cur.epoch + 1,
		pages: append([][]int64(nil), cur.pages...),
		dead:  make([]int, 0, len(v.overlay)),
	}
	// Deterministic application order: the overlay and dirty sets are maps,
	// but nothing numeric is folded in map order — entries land by index,
	// and the dead list is only ever used as a set.
	dirtyPages := make([]int, 0, len(v.dirty))
	for p := range v.dirty {
		dirtyPages = append(dirtyPages, p)
		next.pages[p] = append([]int64(nil), cur.pages[p]...)
	}
	sort.Ints(dirtyPages)
	for id, phys := range v.overlay {
		slot := &next.pages[id/bs][id%bs]
		if *slot >= 0 {
			next.dead = append(next.dead, int(*slot))
		}
		*slot = int64(phys)
	}
	v.mu.Unlock()

	// Serialize the dirty table pages and the superblock. This happens
	// outside the allocation lock: maintenance is the only mutator (writes
	// are externally serialized), so the overlay cannot change underneath.
	n := len(dirtyPages) + v.hdr
	slab := make([]float64, n*bs)
	frames := SliceFrames(slab, n, bs)
	ids := make([]int, 0, n)
	for i, p := range dirtyPages {
		page := frames[i]
		for s, phys := range next.pages[p] {
			if phys >= 0 {
				page[s] = math.Float64frombits(uint64(phys) + 1)
			}
		}
		ids = append(ids, v.hdr+p)
	}
	v.encodeSuper(frames[len(dirtyPages):], next.epoch)
	for i := 0; i < v.hdr; i++ {
		ids = append(ids, i)
	}
	if err := WriteBlocksOf(v.write, ids, frames); err != nil {
		return fmt.Errorf("storage: write epoch %d remap table: %w", next.epoch, err)
	}
	if err := CommitIfAble(v.write); err != nil {
		return fmt.Errorf("storage: commit epoch %d: %w", next.epoch, err)
	}

	v.mu.Lock()
	defer v.mu.Unlock()
	v.cur = next
	v.tables = append(v.tables, next)
	clear(v.overlay)
	clear(v.dirty)
	if cur.refs == 0 {
		v.retireLocked(cur)
	}
	return nil
}

// Rollback discards the building epoch: the overlay's allocations return
// to the free list and a transactional write path drops its staged blocks.
// It reports true: the epoch layer stages every write.
func (v *Versioned) Rollback() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, phys := range v.overlay {
		v.freeLocked(phys)
	}
	v.lowerMarkLocked()
	clear(v.overlay)
	clear(v.dirty)
	RollbackIfAble(v.write)
	return true
}

// retireLocked removes a superseded, unpinned table from the live set and
// frees the blocks only it kept alive.
//
// A block born in epoch b and superseded by the flip to epoch s is mapped
// by exactly the tables of epochs [b, s-1]. It waits on the dead list of
// the first live table at or after s; if any live table still maps it, so
// does that table's live predecessor (the latest live epoch below s), so
// one comparison — birth against the predecessor's epoch — decides. When t
// retires, its successor's list is re-judged against t's own predecessor,
// and t's list (already judged against that predecessor, and kept) moves to
// the successor unexamined. The work is the two lists, never a table.
// Caller holds mu.
func (v *Versioned) retireLocked(t *epochTable) {
	j := 0
	for v.tables[j] != t {
		j++
	}
	succ := v.tables[j+1] // cur is never retired, so t has a successor
	kept := t.dead
	for _, phys := range succ.dead {
		if j > 0 && v.birth[phys-v.dataBase] <= v.tables[j-1].epoch {
			kept = append(kept, phys)
		} else {
			v.freeLocked(phys)
		}
	}
	succ.dead = kept
	v.tables = append(v.tables[:j], v.tables[j+1:]...)
	v.lowerMarkLocked()
}

// Acquire pins the current committed epoch and returns a Snapshot that
// resolves it against the read path until Release.
func (v *Versioned) Acquire() *Snapshot {
	s := new(Snapshot)
	v.Pin(s)
	return s
}

// Pin is Acquire into a zero Snapshot the caller owns — one embedded in a
// larger object, so pinning an epoch costs that object's allocation only.
// The Snapshot must be released like any other.
func (v *Versioned) Pin(s *Snapshot) {
	v.mu.Lock()
	t := v.cur
	t.refs++
	v.mu.Unlock()
	s.v, s.t = v, t
}

// release unpins a table; the last release of a superseded epoch returns
// the blocks only it kept alive to the free list.
func (v *Versioned) release(t *epochTable) {
	v.mu.Lock()
	defer v.mu.Unlock()
	t.refs--
	if t.refs == 0 && t != v.cur {
		v.retireLocked(t)
	}
}

// EpochStats is the observability surface of the epoch layer, reported by
// `shiftsplit info` and /v1/stats so operators can spot snapshot leaks
// holding back reclamation.
type EpochStats struct {
	// Epoch is the current committed epoch.
	Epoch uint64 `json:"epoch"`
	// Pinned is the number of outstanding (unreleased) snapshots.
	Pinned int `json:"pinned_snapshots"`
	// OldestPinned is the oldest epoch a snapshot still pins (== Epoch when
	// nothing older than the current epoch is held).
	OldestPinned uint64 `json:"oldest_pinned_epoch"`
	// FreeBlocks is the number of physical blocks on the free list, ready
	// for copy-on-write reuse.
	FreeBlocks int `json:"free_blocks"`
	// Reclaimable is the number of physical blocks held only by pinned
	// old epochs — they join the free list when those snapshots release.
	Reclaimable int `json:"reclaimable_blocks"`
	// PhysBlocks is the physical block high-water mark (superblock + table
	// pages + allocated data).
	PhysBlocks int `json:"phys_blocks"`
}

// Stats returns a point-in-time snapshot of the epoch layer's state. It
// reads the allocator's running counts, so its cost is the number of pinned
// epochs, not the size of their tables.
func (v *Versioned) Stats() EpochStats {
	v.mu.Lock()
	defer v.mu.Unlock()
	st := EpochStats{Epoch: v.cur.epoch, OldestPinned: v.cur.epoch, FreeBlocks: v.nfree, PhysBlocks: v.markLocked()}
	for _, t := range v.tables {
		st.Pinned += t.refs
		if t.refs > 0 && t.epoch < st.OldestPinned {
			st.OldestPinned = t.epoch
		}
		// A dead list holds exactly the blocks superseded since the previous
		// live table that some pinned table still maps.
		st.Reclaimable += len(t.dead)
	}
	return st
}

// Close seals any building epoch and closes the underlying stack exactly
// once: through the read path when it is distinct (the serving composition
// threads the write path through the read chain), else through the shared
// store.
func (v *Versioned) Close() error {
	err := v.Commit()
	if errors.Is(err, ErrClosed) {
		err = nil
	}
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		return err
	}
	v.closed = true
	v.mu.Unlock()
	closer := v.write
	if v.read != v.write {
		closer = v.read
	}
	if cerr := closer.Close(); err == nil {
		err = cerr
	}
	return err
}

// VersionedInfo is the decoded epoch superblock of a versioned store, as
// reported by Fsck and the CLI.
type VersionedInfo struct {
	// Epoch is the committed epoch the superblock records.
	Epoch uint64 `json:"epoch"`
	// Logical is the logical block-id space the table maps.
	Logical int `json:"logical_blocks"`
	// TablePages is the number of remap-table pages.
	TablePages int `json:"table_pages"`
	// DataBase is the first physical data block id.
	DataBase int `json:"data_base"`
	// Mapped is the number of logical blocks with a physical mapping.
	Mapped int `json:"mapped_blocks"`
}

// ReadVersionedInfo decodes the superblock and remap table a versioned
// store persisted, reading through store (which must present logical
// payloads — e.g. a ChecksumReader over the durable data file). Nothing is
// mutated; a fresh (never-committed) layout decodes as epoch 0 with no
// mappings.
func ReadVersionedInfo(store BlockStore, logical int) (*VersionedInfo, error) {
	v, err := NewVersioned(store, logical)
	if err != nil {
		return nil, err
	}
	mapped := 0
	for _, page := range v.cur.pages {
		for _, p := range page {
			if p >= 0 {
				mapped++
			}
		}
	}
	return &VersionedInfo{
		Epoch:      v.cur.epoch,
		Logical:    logical,
		TablePages: v.pages,
		DataBase:   v.dataBase,
		Mapped:     mapped,
	}, nil
}

// FsckVersioned decodes the epoch superblock of a versioned durable file
// without opening the store: frames are verified through a read-only
// checksum reader, so a torn superblock surfaces as an error instead of
// garbage.
func FsckVersioned(path string, blockSize, logical int) (*VersionedInfo, error) {
	fs, err := OpenFileStore(path, blockSize+ChecksumOverhead)
	if err != nil {
		return nil, err
	}
	defer fs.Close()
	rd, err := NewChecksumReader(fs)
	if err != nil {
		return nil, err
	}
	return ReadVersionedInfo(rd, logical)
}

// Snapshot is a pinned, immutable view of one committed epoch. It
// implements BlockStore for reads (writes fail with ErrSnapshotReadOnly)
// and resolves every logical id through its pinned table against the
// Versioned's read path, so it is safe for concurrent use whenever that
// path is. Every Snapshot must be released, or its epoch's blocks are
// never reclaimed; the root package pins only inside Store.WithSnapshot,
// which releases on every exit.
type Snapshot struct {
	v *Versioned
	t *epochTable

	mu       sync.Mutex
	released bool
}

// Epoch returns the pinned epoch.
func (s *Snapshot) Epoch() uint64 { return s.t.epoch }

// BlockSize returns the block size.
func (s *Snapshot) BlockSize() int { return s.v.read.BlockSize() }

// ReadBlock reads a logical block as the pinned epoch saw it.
func (s *Snapshot) ReadBlock(id int, buf []float64) error {
	if err := checkBlockArgs(s, id, buf); err != nil {
		return err
	}
	if err := s.v.checkLogical(id); err != nil {
		return err
	}
	phys := s.t.phys(id, s.v.pageSize)
	if phys < 0 {
		ZeroFill(buf)
		return nil
	}
	return s.v.read.ReadBlock(int(phys), buf)
}

// ReadBlocks implements BatchReader against the pinned table: one vectored
// read for the mapped ids, zero-fill for the rest.
func (s *Snapshot) ReadBlocks(ids []int, bufs [][]float64) error {
	if err := checkBatchArgs(s, ids, bufs); err != nil {
		return err
	}
	sc := remapPool.Get().(*remapScratch)
	defer sc.release()
	for i, id := range ids {
		if err := s.v.checkLogical(id); err != nil {
			return err
		}
		if phys := s.t.phys(id, s.v.pageSize); phys >= 0 {
			sc.add(false, int(phys), bufs[i])
		} else {
			ZeroFill(bufs[i])
		}
	}
	return ReadBlocksOf(s.v.read, sc.ids, sc.bufs)
}

// WriteBlock fails: snapshots are immutable.
func (s *Snapshot) WriteBlock(id int, data []float64) error { return ErrSnapshotReadOnly }

// Release unpins the epoch (idempotent). Once the last pin of a retired
// epoch drops, its exclusive physical blocks return to the free list.
func (s *Snapshot) Release() {
	s.mu.Lock()
	done := s.released
	s.released = true
	s.mu.Unlock()
	if done {
		return
	}
	s.v.release(s.t)
}

// Close implements BlockStore by releasing the pin (the Versioned owns the
// underlying stack).
func (s *Snapshot) Close() error {
	s.Release()
	return nil
}
