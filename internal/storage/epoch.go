package storage

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// This file is the MVCC epoch layer: a per-epoch block-id remap table
// between the tile map (logical block ids) and the physical store, so
// maintenance writes go to freshly allocated physical blocks for the next
// epoch while readers keep resolving the current epoch's table through a
// refcounted Snapshot. Commits are shadow-paged: every block an epoch
// writes — data and remap-table page alike — lands on a block no committed
// epoch references, so nothing is journaled; the flip is the write of one
// superblock slot between two device syncs, and a crash recovers to
// exactly the old or exactly the new epoch.
//
// Physical layout (absolute block ids on the underlying store), format 2:
//
//	[0, hdr)          superblock slot 0: even epochs
//	[hdr, 2·hdr)      superblock slot 1: odd epochs
//	[2·hdr, ...)      data blocks and remap-table pages, both copy-on-write
//	                  allocated from one free list
//
// A slot is hdr blocks. Value 0 of each of its blocks holds the epoch; the
// rest, block after block, hold the body:
//
//	magic "SSEPOCH2", version 2, logical, pages,
//	physical id + 1 of each table page (0: the page maps nothing),
//	zeros, check word (the slot's last value)
//
// The check word is checkV2 over the bytes of every value before it, so a
// slot verifies on an unframed store too. A table page holds 2·blockSize
// entries, two uint32 per value, low half first: 0 = unmapped, else
// phys+1.
//
// Commit writes the dirty table pages (the data blocks are already on the
// medium), syncs, writes the new superblock into slot epoch%2 — the
// alternate of the current one — and syncs again. Open takes the newest
// slot that verifies; one whose blocks carry different epochs is torn. The
// epoch the other slot describes is kept whole: a block the flip to epoch E
// superseded returns to the free list only once the flip to E+1 is durable,
// when no slot describes an epoch that maps it any more. So a crash in the
// next flip, and a current slot that rots, both open the previous epoch
// exactly; nothing a later epoch wrote can have overwritten its blocks.
// Keeping it costs the file about one batch of growth, except after a flip
// that superseded half the store or more (a whole-domain write): when the
// building epoch then needs more blocks than the free list holds, the
// previous epoch is given up instead — a retired slot (magic "SSRETIRE",
// which never verifies as an epoch) is written over it and synced, and
// only then are its blocks reused. A current slot that rots then fails the
// open rather than serving anything.
//
// Format 1 (magic "SSEPOCH1") kept one superblock at block 0 and the table,
// one uint64 entry per value, in place at [1, 1+pages1); it is read, never
// written. Its first commit converts it: the data and every table page go
// to free blocks at or above format 1's first data block, and the new slot
// — which overwrites format 1's metadata — commits through the Durable's
// journal when there is one, so a crash leaves either store.
//
// All superblock and table values hold raw uint64 bit patterns
// reinterpreted as float64 (math.Float64frombits); they round-trip through
// every block store bit-exactly and are never used arithmetically.

// shadowMagic identifies a format-2 superblock slot ("SSEPOCH2").
const shadowMagic uint64 = 0x5353_4550_4f43_4832

// shadowVersion is the format-2 version word.
const shadowVersion uint64 = 2

// retiredMagic marks a slot whose epoch was given up ("SSRETIRE").
const retiredMagic uint64 = 0x5353_5245_5449_5245

// legacyMagic identifies a format-1 superblock ("SSEPOCH1").
const legacyMagic uint64 = 0x5353_4550_4f43_4831

// legacySlots is the number of format-1 superblock values (magic, version,
// epoch, logical, pages).
const legacySlots = 5

// slotFixed is the number of slot body values besides the page pointers:
// magic, version, logical, pages and the check word.
const slotFixed = 5

// maxPhys is the largest physical id a packed table entry can hold.
const maxPhys = math.MaxUint32 - 1

// Slot states, as VersionedInfo reports them.
const (
	SlotValid     = "valid"
	SlotUnwritten = "unwritten"
	SlotRetired   = "retired"
	SlotFormat1   = "format 1 superblock"
)

// ErrSnapshotReadOnly is returned by writes through a Snapshot: a pinned
// epoch is immutable by construction.
var ErrSnapshotReadOnly = errors.New("storage: snapshot is read-only")

// epochTable is one immutable committed remap: logical block id -> physical
// block id (-1 = unmapped, reads as zeros), held as pageSize-entry pages
// that mirror the on-media table pages. A flip shares every page it left
// clean with its predecessor and copies only the dirty ones, so publishing
// an epoch costs what its batch costs. pagePhys is where each page lives on
// the medium (-1: nowhere, it maps nothing). refs counts pinned Snapshots;
// dead lists the physical blocks superseded on the way to this epoch that
// the preceding live table still references (see retireLocked). Both are
// guarded by the owning Versioned's mu. A table stays live while a
// Snapshot pins it, while it is current, and while the other superblock
// slot describes it (Versioned.prev).
type epochTable struct {
	epoch    uint64
	pages    [][]int64
	pagePhys []int
	refs     int
	dead     []int
}

// phys resolves a logical id in tables of pageSize-entry pages.
func (t *epochTable) phys(id, pageSize int) int64 {
	return t.pages[id/pageSize][id%pageSize]
}

// each calls fn with every physical block the table maps, data and pages.
func (t *epochTable) each(fn func(phys int)) {
	for _, page := range t.pages {
		for _, p := range page {
			if p >= 0 {
				fn(int(p))
			}
		}
	}
	for _, p := range t.pagePhys {
		if p >= 0 {
			fn(p)
		}
	}
}

// freeBlock marks, in Versioned.birth, a block that sits on the free list;
// no epoch is ever numbered that high.
const freeBlock = ^uint64(0)

// Versioned interposes the epoch remap between logical block ids (what the
// tile map addresses) and a physical store. Writes are copy-on-write: the
// first write to a logical block in an epoch allocates a fresh physical
// block (from the free list, else the high-water mark) and goes straight
// to the medium, so no live snapshot's blocks are ever overwritten. Commit
// writes the dirty table pages to fresh blocks too and flips the
// superblock slot, then publishes the new table.
//
// Reads and writes through the Versioned itself resolve the building
// overlay first (read-your-writes for the maintenance engines), then the
// current table. Concurrent readers must pin an epoch with Acquire and read
// through the returned Snapshot, which resolves one immutable table against
// the read path for its whole lifetime.
type Versioned struct {
	write BlockStore // full mutation path (device, sync, commit)
	read  BlockStore // concurrent committed-read path; == write when shared

	logical  int // fixed logical block-id space
	pageSize int // remap entries per table page: two per block value
	hdr      int // blocks per superblock slot
	pages    int // remap table pages
	dataBase int // first allocatable block id: 2·hdr

	// durable, when set, is the journal under the write path: a format-1
	// store's conversion commits its superblock through it.
	durable *Durable
	// slots is what load found in the two superblock slots (fsck reports
	// it; a flip does not update it).
	slots [2]SlotInfo

	mu  sync.Mutex
	cur *epochTable // current committed table (last of tables)
	// prev is the epoch the other superblock slot describes, nil when none
	// does (a fresh or format-1 store, or one whose other slot does not
	// verify or was retired). It stays live, as if pinned, until the next
	// flip is durable or giveUpPrevLocked retires its slot.
	prev      *epochTable
	tables    []*epochTable    // live tables by ascending epoch: pinned old epochs and prev, then cur
	overlay   map[int]int      // building epoch: logical -> phys
	dirty     map[int]struct{} // table pages touched by the overlay
	pageAlloc map[int]int      // building epoch: table page -> the fresh block it is written to
	// legacy is format 1's first data block while the store is still in
	// format 1, else 0. Blocks in [dataBase, legacy) hold format 1's table
	// and stay allocated until the converting commit supersedes them.
	legacy int
	// birth has one entry per block in [dataBase, mark): the epoch whose
	// batch allocated the block, or freeBlock. It is volatile — blocks found
	// in use at open get birth 0, which is at most every epoch a table can
	// be pinned at afterwards.
	birth   []uint64
	free    []int          // min-heap of the freeBlock ids (plus stale ids at or above the mark)
	nfree   int            // freeBlock entries of birth
	onReuse func(phys int) // invoked when a physical id is handed to a new epoch
	closed  bool

	// Commit's frames and ids, reused: commits are serialized.
	slab   []float64
	frames [][]float64
	ids    []int
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
	v, err := openVersioned(write, read, logical)
	if err != nil {
		return nil, err
	}
	return v, nil
}

// openVersioned builds the layer and loads it; on a load error it returns
// the layer too, with what load learned of the two slots.
func openVersioned(write, read BlockStore, logical int) (*Versioned, error) {
	if logical <= 0 {
		return nil, fmt.Errorf("storage: versioned store needs a positive logical block count, got %d", logical)
	}
	bs := write.BlockSize()
	if read.BlockSize() != bs {
		return nil, fmt.Errorf("storage: versioned read block size %d != write block size %d", read.BlockSize(), bs)
	}
	if bs < 2 {
		return nil, fmt.Errorf("storage: versioned store needs a block size of at least 2, got %d", bs)
	}
	pages := (logical + 2*bs - 1) / (2 * bs)
	hdr := (slotFixed + pages + bs - 2) / (bs - 1)
	v := &Versioned{
		write:     write,
		read:      read,
		logical:   logical,
		pageSize:  2 * bs,
		hdr:       hdr,
		pages:     pages,
		dataBase:  2 * hdr,
		overlay:   make(map[int]int),
		dirty:     make(map[int]struct{}),
		pageAlloc: make(map[int]int),
	}
	return v, v.load()
}

// AttachDurable names the Durable under the write path. A format-2 store
// writes every block through it unjournaled (the epoch layer orders its own
// writes and syncs); a format-1 store keeps its superblock region journaled
// until the converting commit.
func (v *Versioned) AttachDurable(d *Durable) {
	v.durable = d
	d.ShadowFrom(v.legacy)
}

// OnReuse registers a hook called (under the allocation lock) whenever a
// physical block is handed to a new epoch: off the free list, or at the
// high-water mark, which comes down past a freed run at the top of the file
// so that growing it re-issues ids that have held another epoch's data. The
// serving cache drops its entry for that physical id here, which is the
// only cache invalidation the epoch layer ever needs: a physical id is
// never rebound while any live epoch still references it.
func (v *Versioned) OnReuse(fn func(phys int)) { v.onReuse = fn }

// slotImage is a superblock slot that verified.
type slotImage struct {
	epoch    uint64
	pagePhys []int
}

// SlotInfo describes one superblock slot as open found it.
type SlotInfo struct {
	// Epoch is the epoch the slot records (0 unless State is SlotValid).
	Epoch uint64 `json:"epoch"`
	// State is SlotValid, SlotUnwritten, SlotFormat1, or why the slot does
	// not verify.
	State string `json:"state"`
}

// load reads both superblock slots and the newest valid one's table through
// the write path (open runs before any concurrency) and rebuilds the free
// list and high-water mark by sweeping the table — the one place the whole
// table is walked. With no valid slot, a format-1 superblock loads as such,
// and an unwritten slot 1 as a fresh store: epoch 1, the first flip, never
// finished (slot 0 may hold a torn epoch-0 superblock). Anything else is
// corrupt — the first flip makes slot 0 a valid epoch 0 before it writes
// slot 1.
func (v *Versioned) load() error {
	n := v.hdr * v.BlockSize()
	buf := make([]float64, 2*n)
	var imgs [2]*slotImage
	for s := range imgs {
		img, state, err := v.readSlot(s, buf[s*n:(s+1)*n])
		if err != nil {
			return err
		}
		imgs[s], v.slots[s].State = img, state
		if img != nil {
			v.slots[s].Epoch = img.epoch
		}
	}
	best := -1
	for s, img := range imgs {
		if img != nil && (best < 0 || img.epoch > imgs[best].epoch) {
			best = s
		}
	}
	switch {
	case best >= 0:
		return v.loadShadow(imgs[best], imgs[1-best])
	case v.slots[0].State == SlotFormat1:
		return v.loadLegacy(buf[:n])
	case v.slots[1].State == SlotUnwritten:
		slab, table := v.newTable()
		v.cur = &epochTable{pages: table, pagePhys: noPages(v.pages)}
		v.tables = []*epochTable{v.cur}
		return v.sweep(slab)
	}
	return fmt.Errorf("storage: no versioned superblock slot verifies (slot 0: %s; slot 1: %s): %w",
		v.slots[0].State, v.slots[1].State, ErrCorruption)
}

// readSlot reads slot s into buf and decodes it. A frame that fails
// verification makes the slot invalid, not the open: it is a torn flip.
func (v *Versioned) readSlot(s int, buf []float64) (*slotImage, string, error) {
	ids := make([]int, v.hdr)
	for i := range ids {
		ids[i] = s*v.hdr + i
	}
	err := ReadBlocksOf(v.write, ids, SliceFrames(buf, v.hdr, v.BlockSize()))
	if errors.Is(err, ErrCorruption) {
		return nil, "a frame fails verification", nil
	}
	if err != nil {
		return nil, "", fmt.Errorf("storage: read versioned superblock slot %d: %w", s, err)
	}
	return v.decodeSlot(s, buf)
}

// slotPos is where body value i of a slot sits: value 0 of every block is
// the epoch.
func slotPos(i, bs int) int { return (i/(bs-1))*bs + 1 + i%(bs-1) }

// slotCheck is the check word over a slot's values before the check word.
func slotCheck(vals []float64) uint64 {
	var scratch []byte
	if !littleEndian {
		scratch = make([]byte, 8*len(vals))
	}
	return checkV2(mediaBytes(vals, scratch), nil)
}

// decodeSlot verifies a slot read from position s. A slot that does not
// verify yields its reason; one that verifies but does not describe this
// geometry, or points outside the data area, is an error: no crash writes
// that.
func (v *Versioned) decodeSlot(s int, buf []float64) (*slotImage, string, error) {
	bs := v.BlockSize()
	if !slices.ContainsFunc(buf, func(x float64) bool { return math.Float64bits(x) != 0 }) {
		return nil, SlotUnwritten, nil
	}
	if s == 0 && math.Float64bits(buf[0]) == legacyMagic && math.Float64bits(buf[1]) == 1 {
		return nil, SlotFormat1, nil
	}
	epoch := math.Float64bits(buf[0])
	for k := 1; k < v.hdr; k++ {
		if math.Float64bits(buf[k*bs]) != epoch {
			return nil, "torn: its blocks carry different epochs", nil
		}
	}
	n := len(buf)
	if slotCheck(buf[:n-1]) != math.Float64bits(buf[n-1]) {
		return nil, "check word mismatch", nil
	}
	body := func(i int) uint64 { return math.Float64bits(buf[slotPos(i, bs)]) }
	if body(0) == retiredMagic && body(1) == shadowVersion {
		return nil, SlotRetired, nil
	}
	if body(0) != shadowMagic || body(1) != shadowVersion {
		return nil, fmt.Sprintf("unknown magic %#x, version %d", body(0), body(1)), nil
	}
	if epoch > maxEpoch || int(epoch%2) != s {
		return nil, "", fmt.Errorf("storage: versioned superblock slot %d records epoch %d, which belongs elsewhere: %w", s, epoch, ErrCorruption)
	}
	if l := body(2); l != uint64(v.logical) {
		return nil, "", fmt.Errorf("storage: versioned superblock logical %d, tiling has %d: %w", l, v.logical, ErrCorruption)
	}
	if p := body(3); p != uint64(v.pages) {
		return nil, "", fmt.Errorf("storage: versioned superblock pages %d, want %d: %w", p, v.pages, ErrCorruption)
	}
	ptrs := noPages(v.pages)
	for i := range ptrs {
		raw := body(4 + i)
		if raw == 0 {
			continue
		}
		if raw-1 < uint64(v.dataBase) || raw-1 > maxPhys {
			return nil, "", fmt.Errorf("storage: versioned superblock puts table page %d at physical %d, outside the data area: %w", i, raw-1, ErrCorruption)
		}
		ptrs[i] = int(raw - 1)
	}
	return &slotImage{epoch: epoch, pagePhys: ptrs}, SlotValid, nil
}

// noPages is a page-pointer list with every page absent.
func noPages(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = -1
	}
	return p
}

// newTable allocates an all-unmapped table: one slab cut into full-size
// pages (entries past logical stay unmapped).
func (v *Versioned) newTable() ([]int64, [][]int64) {
	slab := make([]int64, v.pages*v.pageSize)
	for i := range slab {
		slab[i] = -1
	}
	table := make([][]int64, v.pages)
	for i := range table {
		table[i] = slab[i*v.pageSize : (i+1)*v.pageSize : (i+1)*v.pageSize]
	}
	return slab, table
}

// loadShadow loads the table the current slot points to, and the table of
// the other slot, when it verifies too, as prev: its blocks stay allocated
// until the next flip, so that it remains the exact fallback should the
// current slot be lost. A prev whose table does not load is not kept.
func (v *Versioned) loadShadow(img, other *slotImage) error {
	slab, t, err := v.readTable(img)
	if err != nil {
		return err
	}
	v.cur = t
	v.tables = []*epochTable{t}
	if other != nil {
		if _, p, err := v.readTable(other); err == nil {
			v.prev = p
		}
	}
	return v.sweep(slab)
}

// readTable reads and decodes the table a valid format-2 slot points to.
func (v *Versioned) readTable(img *slotImage) ([]int64, *epochTable, error) {
	bs := v.BlockSize()
	slab, table := v.newTable()
	var pageIDs, pageNums []int
	for i, p := range img.pagePhys {
		if p >= 0 {
			pageIDs, pageNums = append(pageIDs, p), append(pageNums, i)
		}
	}
	media := SliceFrames(make([]float64, len(pageIDs)*bs), len(pageIDs), bs)
	if err := ReadBlocksOf(v.write, pageIDs, media); err != nil {
		return nil, nil, fmt.Errorf("storage: read versioned remap table: %w", err)
	}
	limit := v.physLimit()
	for k, page := range media {
		for s, val := range page {
			raw := math.Float64bits(val)
			for h, e := range [2]uint32{uint32(raw), uint32(raw >> 32)} {
				if e == 0 {
					continue
				}
				id := pageNums[k]*v.pageSize + 2*s + h
				if id >= v.logical {
					return nil, nil, fmt.Errorf("storage: versioned table maps logical %d, beyond the tiling's %d: %w", id, v.logical, ErrCorruption)
				}
				p := int64(e) - 1
				if p < int64(v.dataBase) {
					return nil, nil, fmt.Errorf("storage: versioned table maps logical %d to reserved physical %d: %w", id, p, ErrCorruption)
				}
				if p >= int64(limit) {
					return nil, nil, fmt.Errorf("storage: versioned table maps logical %d to physical %d, past the %d that %d generations of it can fill: %w", id, p, limit, maxGenerations, ErrCorruption)
				}
				slab[id] = p
			}
		}
	}
	for i, p := range img.pagePhys {
		if p >= limit {
			return nil, nil, fmt.Errorf("storage: versioned table page %d lives at physical %d, past the %d that %d generations of it can fill: %w", i, p, limit, maxGenerations, ErrCorruption)
		}
	}
	return slab, &epochTable{epoch: img.epoch, pages: table, pagePhys: img.pagePhys}, nil
}

// loadLegacy loads a format-1 store: super holds its superblock at block
// 0, and its table pages follow in place.
func (v *Versioned) loadLegacy(super []float64) error {
	bs := v.BlockSize()
	hdr1 := (legacySlots + bs - 1) / bs
	pages1 := (v.logical + bs - 1) / bs
	base1 := hdr1 + pages1
	epoch := math.Float64bits(super[2])
	if l := math.Float64bits(super[3]); l != uint64(v.logical) {
		return fmt.Errorf("storage: versioned superblock logical %d, tiling has %d: %w", l, v.logical, ErrCorruption)
	}
	if p := math.Float64bits(super[4]); p != uint64(pages1) {
		return fmt.Errorf("storage: versioned superblock pages %d, want %d: %w", p, pages1, ErrCorruption)
	}
	if base1 < v.dataBase {
		return fmt.Errorf("storage: format-1 versioned store of block size %d cannot be converted: the format-2 superblock would overlap its data; re-materialize it", bs)
	}
	pageIDs := make([]int, pages1)
	for i := range pageIDs {
		pageIDs[i] = hdr1 + i
	}
	media := SliceFrames(make([]float64, pages1*bs), pages1, bs)
	if err := ReadBlocksOf(v.write, pageIDs, media); err != nil {
		return fmt.Errorf("storage: read versioned remap table: %w", err)
	}
	slab, table := v.newTable()
	for i := 0; i < v.logical; i++ {
		raw := math.Float64bits(media[i/bs][i%bs])
		if raw == 0 {
			continue
		}
		p := int64(raw) - 1
		if p < int64(base1) {
			return fmt.Errorf("storage: versioned table maps logical %d to reserved physical %d: %w", i, p, ErrCorruption)
		}
		slab[i] = p
	}
	v.legacy = base1
	v.cur = &epochTable{epoch: epoch, pages: table, pagePhys: noPages(v.pages)}
	v.tables = []*epochTable{v.cur}
	return v.sweep(slab)
}

// maxGenerations bounds the physical extent a table may claim at open, in
// whole generations of the logical space and its table: blocks in use never
// exceed the live generations (the pinned ones, the current one and the
// building one), so only a table this many pinned rewrites deep could
// reach it, and a hostile table cannot make open allocate for four billion
// blocks.
const maxGenerations = 1024

// physLimit is the physical extent maxGenerations allows a table.
func (v *Versioned) physLimit() int { return v.dataBase + maxGenerations*(v.logical+v.pages) }

// sweep rebuilds the allocator from the current table: a block below the
// mark that neither a logical id nor a table page claims is free (format
// 1's table region stays claimed). Reclamation frees a block when the one
// logical id or page mapping it is rewritten, so a table claiming a block
// twice is corrupt. The blocks prev maps beyond the current table's stay
// allocated, on the current table's dead list, as if the flip between the
// two had just happened. Ascending free ids are already a valid min-heap.
func (v *Versioned) sweep(slab []int64) error {
	high := max(v.dataBase, v.legacy)
	for _, p := range slab[:v.logical] {
		high = max(high, int(p)+1)
	}
	for _, p := range v.cur.pagePhys {
		high = max(high, p+1)
	}
	if v.prev != nil {
		v.prev.each(func(p int) { high = max(high, p+1) })
	}
	if limit := v.physLimit(); high > limit {
		return fmt.Errorf("storage: versioned table claims physical block %d, past the %d that %d generations of it can fill: %w", high-1, limit, maxGenerations, ErrCorruption)
	}
	v.birth = make([]uint64, high-v.dataBase)
	for i := range v.birth {
		v.birth[i] = freeBlock
	}
	for p := v.dataBase; p < v.legacy; p++ {
		v.birth[p-v.dataBase] = 0
	}
	claim := func(p int) bool {
		if v.birth[p-v.dataBase] != freeBlock {
			return false
		}
		v.birth[p-v.dataBase] = 0
		return true
	}
	for i, p := range slab[:v.logical] {
		if p >= 0 && !claim(int(p)) {
			return fmt.Errorf("storage: versioned table maps logical %d to physical %d, which another logical block already maps: %w", i, p, ErrCorruption)
		}
	}
	for i, p := range v.cur.pagePhys {
		if p >= 0 && !claim(p) {
			return fmt.Errorf("storage: versioned table page %d lives at physical %d, which the table already maps: %w", i, p, ErrCorruption)
		}
	}
	if v.prev != nil {
		v.prev.each(func(p int) {
			if claim(p) {
				v.cur.dead = append(v.cur.dead, p)
			}
		})
		v.tables = []*epochTable{v.prev, v.cur}
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
// scrubber should walk (superblock slots, table pages, and allocated data).
func (v *Versioned) PhysExtent() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.markLocked()
}

// markLocked is the allocation high-water mark. Caller holds mu.
func (v *Versioned) markLocked() int { return v.dataBase + len(v.birth) }

// Committed reports whether physical block phys holds committed state: the
// current superblock slot (all of format 1's metadata before conversion),
// or a data block or table page of some live epoch. A scrub verifies only
// these. Free blocks and the building epoch's are left out: a crash can
// leave torn frames in free space, which nothing reads and the next
// allocation overwrites, and the other slot is what the next flip rewrites.
// So is slot 0 at epoch 0: the empty epoch needs no slot (a store whose
// first flip tore it opens fresh), and the next flip rewrites it.
func (v *Versioned) Committed(phys int) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	switch {
	case phys < 0 || phys >= v.markLocked():
		return false
	case phys < v.dataBase:
		return v.legacy > 0 || v.cur.epoch > 0 && phys/v.hdr == int(v.cur.epoch%2)
	}
	b := v.birth[phys-v.dataBase]
	return b != freeBlock && b <= v.cur.epoch
}

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

// resolveLocked returns the physical id the building epoch sees for a
// logical id (overlay first, then the current table), or -1 when unmapped.
// Caller holds mu.
func (v *Versioned) resolveLocked(id int) int64 {
	if phys, ok := v.overlay[id]; ok {
		return int64(phys)
	}
	return v.cur.phys(id, v.pageSize)
}

// ReadBlock reads a logical block as the building epoch sees it: overlay
// writes are visible immediately (read-your-writes for the maintenance
// engines' read-modify-write), everything else resolves the current table.
// Both are on the medium. Unmapped blocks read as zeros without touching
// the device.
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
	phys := v.resolveLocked(id)
	v.mu.Unlock()
	if phys < 0 {
		ZeroFill(buf)
		return nil
	}
	return v.write.ReadBlock(int(phys), buf)
}

// ReadBlocks implements BatchReader: every mapped id is resolved and the
// batch fetched from the write path as one vectored read; unmapped ids
// zero-fill.
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
		if phys := v.resolveLocked(id); phys >= 0 {
			sc.add(int(phys), bufs[i])
		} else {
			ZeroFill(bufs[i])
		}
	}
	v.mu.Unlock()
	return ReadBlocksOf(v.write, sc.ids, sc.bufs)
}

// remapScratch is one batch read's physical ids and buffers after the
// remap, pooled so that a read through an epoch allocates nothing.
type remapScratch struct {
	ids  []int
	bufs [][]float64
}

var remapPool = sync.Pool{New: func() any { return new(remapScratch) }}

// add files one resolved block.
func (sc *remapScratch) add(phys int, buf []float64) {
	sc.ids = append(sc.ids, phys)
	sc.bufs = append(sc.bufs, buf)
}

// release empties the scratch, dropping its references to the caller's
// buffers, and returns it to the pool.
func (sc *remapScratch) release() {
	clear(sc.bufs)
	sc.ids, sc.bufs = sc.ids[:0], sc.bufs[:0]
	remapPool.Put(sc)
}

// allocLocked picks the physical block for a logical write in the building
// epoch: a block already written this epoch is rewritten in place (it is
// invisible until Commit), otherwise a fresh block is taken. Caller holds
// mu.
func (v *Versioned) allocLocked(id int) int {
	if phys, ok := v.overlay[id]; ok {
		return phys
	}
	phys := v.takeLocked()
	v.overlay[id] = phys
	v.dirty[id/v.pageSize] = struct{}{}
	return phys
}

// needLocked is how many blocks a write of ids takes: one per id the
// building epoch has not written yet (a repeat within ids counts again).
// Caller holds mu.
func (v *Versioned) needLocked(ids []int) int {
	n := 0
	for _, id := range ids {
		if _, ok := v.overlay[id]; !ok {
			n++
		}
	}
	return n
}

// reserveLocked gives prev up when the building epoch is about to take
// more blocks than the free list holds while prev alone holds half the
// store or more: keeping a whole generation for one epoch's fallback is
// not worth growing the file. A smaller hold is kept and the file grows;
// the free list then carries the extra batch, so a steady run of like
// batches grows it once and never pays for a retired slot. Caller holds
// mu; the retired slot is written and synced under it, which happens at
// most once per epoch.
func (v *Versioned) reserveLocked(need int) error {
	p := v.prev
	if need <= v.nfree || p == nil || p.refs > 0 || 2*len(v.cur.dead) < v.logical {
		return nil
	}
	return v.giveUpPrevLocked()
}

// giveUpPrevLocked retires prev's slot on the medium — a retired slot in
// the region the next flip writes, then a sync, so no block of prev is
// overwritten while a slot still describes it — and frees the blocks only
// prev kept. Caller holds mu.
func (v *Versioned) giveUpPrevLocked() error {
	bs, epoch := v.BlockSize(), v.cur.epoch+1
	frames := v.commitFrames(v.hdr)
	v.encodeSlot(v.slab[:v.hdr*bs], epoch, retiredMagic, nil)
	ids := v.ids[:0]
	for i := 0; i < v.hdr; i++ {
		ids = append(ids, int(epoch%2)*v.hdr+i)
	}
	v.ids = ids
	if err := WriteBlocksOf(v.write, ids, frames); err != nil {
		return fmt.Errorf("storage: retire epoch %d superblock: %w", v.prev.epoch, err)
	}
	if err := SyncIfAble(v.write); err != nil {
		return fmt.Errorf("storage: sync retired epoch %d superblock: %w", v.prev.epoch, err)
	}
	p := v.prev
	v.prev = nil
	v.retireLocked(p)
	return nil
}

// takeLocked hands a block to the building epoch: the lowest free block,
// otherwise the file grows at the high-water mark. Either way the reuse
// hook drops stale cache entries for the id first. Caller holds mu.
func (v *Versioned) takeLocked() int {
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
	return phys
}

// freeLocked puts a block no live table references on the free list.
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

// popFreeLocked takes the lowest free block off the free list. Caller
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

// WriteBlock writes a logical block copy-on-write into the building epoch.
// The data reaches a physical block no committed epoch references, so
// concurrent snapshot readers and a crash alike are undisturbed.
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
	if err := v.reserveLocked(v.needLocked([]int{id})); err != nil {
		v.mu.Unlock()
		return err
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
	if err := v.reserveLocked(v.needLocked(ids)); err != nil {
		v.mu.Unlock()
		return err
	}
	for i, id := range ids {
		physIDs[i] = v.allocLocked(id)
	}
	v.mu.Unlock()
	return WriteBlocksOf(v.write, physIDs, data)
}

// commitFrames returns n reusable block-sized frames over one slab.
func (v *Versioned) commitFrames(n int) [][]float64 {
	bs := v.BlockSize()
	if n*bs > cap(v.slab) {
		v.slab = make([]float64, n*bs)
		v.frames = nil
	}
	if n > len(v.frames) {
		v.frames = SliceFrames(v.slab[:n*bs], n, bs)
	}
	clear(v.slab[:n*bs])
	return v.frames[:n]
}

// encodePage packs a table page into a frame, two uint32 entries per value.
func encodePage(frame []float64, page []int64) error {
	for s := range frame {
		var raw uint64
		for h := 1; h >= 0; h-- {
			raw <<= 32
			if p := page[2*s+h]; p >= 0 {
				if p > maxPhys {
					return fmt.Errorf("storage: physical block %d does not fit a table entry", p)
				}
				raw |= uint64(p) + 1
			}
		}
		frame[s] = math.Float64frombits(raw)
	}
	return nil
}

// encodeSlot fills a slot's values (hdr contiguous blocks): magic, and the
// epoch and table page locations it records.
func (v *Versioned) encodeSlot(buf []float64, epoch, magic uint64, pagePhys []int) {
	bs := v.BlockSize()
	for k := 0; k < v.hdr; k++ {
		buf[k*bs] = math.Float64frombits(epoch)
	}
	body := [4]uint64{magic, shadowVersion, uint64(v.logical), uint64(v.pages)}
	for i, raw := range body {
		buf[slotPos(i, bs)] = math.Float64frombits(raw)
	}
	for i, p := range pagePhys {
		if p >= 0 {
			buf[slotPos(len(body)+i, bs)] = math.Float64frombits(uint64(p) + 1)
		}
	}
	n := len(buf)
	buf[n-1] = math.Float64frombits(slotCheck(buf[:n-1]))
}

// mapsAny reports whether a table page maps any logical block.
func mapsAny(page []int64) bool {
	for _, p := range page {
		if p >= 0 {
			return true
		}
	}
	return false
}

// Commit flips the building epoch: each dirty remap-table page goes to a
// fresh block, the device is synced (the epoch's data and pages are then
// durable, and still unreachable), the superblock stamped epoch+1 goes into
// the alternate slot, and the device is synced again — the flip — before
// the commit is passed down (a Durable under the write path journals only a
// format-1 conversion's superblock, and retains the batch as its repair
// source). Only then is the new table published. The table it replaces
// becomes prev, which the other slot now describes; the blocks that the
// flip before superseded, which only the old prev still mapped, return to
// the free list unless a pinned table references them.
// The flip's work — in memory and on the medium — is proportional to the
// batch, never to the logical space beyond one slice header per table page.
//
// A failed Commit publishes nothing and keeps the building epoch, whose
// blocks stay allocated: its slot may be on the medium, so a retry rewrites
// the same blocks and the same slot.
//
// With nothing written, Commit degenerates to forwarding the durability
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
	need := 0
	for p := range v.dirty {
		if _, ok := v.pageAlloc[p]; !ok {
			need++
		}
	}
	if err := v.reserveLocked(need); err != nil {
		v.mu.Unlock()
		return err
	}
	cur := v.cur
	next := &epochTable{
		epoch:    cur.epoch + 1,
		pages:    append([][]int64(nil), cur.pages...),
		pagePhys: append([]int(nil), cur.pagePhys...),
		dead:     make([]int, 0, len(v.overlay)+len(v.dirty)),
	}
	if v.legacy > 0 {
		// The conversion writes the whole table.
		for p := 0; p < v.pages; p++ {
			v.dirty[p] = struct{}{}
		}
	}
	// Deterministic application order: the overlay and dirty sets are maps,
	// but nothing numeric is folded in map order — entries land by index,
	// pages are allocated in page order, and the dead list is only ever used
	// as a set.
	dirtyPages := make([]int, 0, len(v.dirty))
	for p := range v.dirty {
		dirtyPages = append(dirtyPages, p)
		next.pages[p] = append([]int64(nil), cur.pages[p]...)
	}
	sort.Ints(dirtyPages)
	for id, phys := range v.overlay {
		slot := &next.pages[id/v.pageSize][id%v.pageSize]
		if *slot >= 0 {
			next.dead = append(next.dead, int(*slot))
		}
		*slot = int64(phys)
	}
	written := dirtyPages[:0:0]
	for _, p := range dirtyPages {
		if old := cur.pagePhys[p]; old >= 0 {
			next.dead = append(next.dead, old)
		}
		next.pagePhys[p] = -1
		if v.legacy > 0 && !mapsAny(next.pages[p]) {
			continue // a page the overlay dirtied maps what it wrote
		}
		phys, ok := v.pageAlloc[p]
		if !ok {
			phys = v.takeLocked()
			v.pageAlloc[p] = phys
		}
		next.pagePhys[p] = phys
		written = append(written, p)
	}
	for p := v.dataBase; p < v.legacy; p++ {
		next.dead = append(next.dead, p)
	}
	v.mu.Unlock()

	// Serialize the dirty table pages and the superblock. This happens
	// outside the allocation lock: maintenance is the only mutator (writes
	// are externally serialized), so the overlay cannot change underneath.
	// The first flip of a fresh store also makes slot 0 a valid, empty
	// epoch 0 before slot 1 is written, so that a torn slot 1 beside an
	// unwritten slot 0 reads as the corruption it is.
	bs, pre := v.BlockSize(), len(written) // pre: the frames written before the first sync
	if cur.epoch == 0 && v.legacy == 0 {
		pre += v.hdr
	}
	frames := v.commitFrames(pre + v.hdr)
	ids := v.ids[:0]
	for i, p := range written {
		if err := encodePage(frames[i], next.pages[p]); err != nil {
			return err
		}
		ids = append(ids, next.pagePhys[p])
	}
	if pre > len(written) {
		v.encodeSlot(v.slab[len(written)*bs:pre*bs], 0, shadowMagic, nil)
		for i := 0; i < v.hdr; i++ {
			ids = append(ids, i)
		}
	}
	v.ids = ids
	if err := WriteBlocksOf(v.write, ids, frames[:pre]); err != nil {
		return fmt.Errorf("storage: write epoch %d remap table: %w", next.epoch, err)
	}
	if err := SyncIfAble(v.write); err != nil {
		return fmt.Errorf("storage: sync epoch %d: %w", next.epoch, err)
	}
	slot := frames[pre:]
	v.encodeSlot(v.slab[pre*bs:len(frames)*bs], next.epoch, shadowMagic, next.pagePhys)
	ids = ids[:0]
	for i := range slot {
		ids = append(ids, int(next.epoch%2)*v.hdr+i)
	}
	if err := WriteBlocksOf(v.write, ids, slot); err != nil {
		return fmt.Errorf("storage: write epoch %d superblock: %w", next.epoch, err)
	}
	if err := SyncIfAble(v.write); err != nil {
		return fmt.Errorf("storage: sync epoch %d superblock: %w", next.epoch, err)
	}
	if err := CommitIfAble(v.write); err != nil {
		return fmt.Errorf("storage: commit epoch %d: %w", next.epoch, err)
	}

	v.mu.Lock()
	defer v.mu.Unlock()
	old := v.prev
	v.prev = cur
	if v.legacy > 0 {
		v.legacy = 0
		v.prev = nil // the new slot overwrote format 1's superblock
		if v.durable != nil {
			v.durable.ShadowFrom(0)
		}
	}
	v.cur = next
	v.tables = append(v.tables, next)
	clear(v.overlay)
	clear(v.dirty)
	clear(v.pageAlloc)
	if old != nil && old.refs == 0 {
		v.retireLocked(old)
	}
	if v.prev == nil && cur.refs == 0 {
		v.retireLocked(cur)
	}
	return nil
}

// Rollback discards the building epoch: the blocks it took return to the
// free list and a transactional write path drops anything it staged. It
// reports true: the epoch layer keeps every write out of the committed
// state. Callers must not roll back an epoch whose Commit failed (its
// superblock may be on the medium); they commit it again.
func (v *Versioned) Rollback() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, phys := range v.overlay {
		v.freeLocked(phys)
	}
	for _, phys := range v.pageAlloc {
		v.freeLocked(phys)
	}
	v.lowerMarkLocked()
	clear(v.overlay)
	clear(v.dirty)
	clear(v.pageAlloc)
	RollbackIfAble(v.write)
	return true
}

// retireLocked removes a superseded table that nothing keeps live any more
// (no Snapshot pins it and no slot describes it) from the live set and
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
// Table pages are judged the same way. Caller holds mu.
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
	if t.refs == 0 && t != v.cur && t != v.prev {
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
	// Reclaimable is the number of physical blocks held only by old epochs:
	// pinned ones, which release them when their snapshots do, and the
	// previous epoch, which the other superblock slot keeps recoverable
	// until the next flip is durable.
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
		// live table that some pinned table, or prev, still maps.
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
	// Epoch is the committed epoch the current superblock records.
	Epoch uint64 `json:"epoch"`
	// Format is the on-media format: 2, or 1 for a store not yet converted
	// (and 2 for a fresh one).
	Format int `json:"format"`
	// Slots are the two superblock slots as they read.
	Slots [2]SlotInfo `json:"slots"`
	// Current is the slot the epoch was loaded from, -1 when none was (a
	// fresh or a format-1 store).
	Current int `json:"current_slot"`
	// Logical is the logical block-id space the table maps.
	Logical int `json:"logical_blocks"`
	// TablePages is the number of remap-table pages.
	TablePages int `json:"table_pages"`
	// DataBase is the first physical data block id.
	DataBase int `json:"data_base"`
	// Mapped is the number of logical blocks with a physical mapping.
	Mapped int `json:"mapped_blocks"`

	committed func(int) bool
}

// Reachable reports whether physical block id holds committed state (see
// Versioned.Committed): a frame there that fails verification is
// corruption; elsewhere it is free space a crash tore.
func (i *VersionedInfo) Reachable(id int) bool { return i.committed(id) }

// ReadVersionedInfo decodes the superblock slots and remap table a
// versioned store persisted, reading through store (which must present
// logical payloads — e.g. a ChecksumReader over the durable data file).
// Nothing is mutated; a fresh (never-committed) layout decodes as epoch 0
// with no mappings. When the table does not load, the returned info still
// carries the two slots' states beside the error.
func ReadVersionedInfo(store BlockStore, logical int) (*VersionedInfo, error) {
	v, err := openVersioned(store, store, logical)
	if v == nil {
		return nil, err
	}
	info := &VersionedInfo{Format: 2, Slots: v.slots, Current: -1, Logical: logical, TablePages: v.pages, DataBase: v.dataBase}
	if err != nil {
		return info, err
	}
	if v.legacy > 0 {
		info.Format = 1
	} else if s := int(v.cur.epoch % 2); v.slots[s].State == SlotValid && v.slots[s].Epoch == v.cur.epoch {
		info.Current = s
	}
	for _, page := range v.cur.pages {
		for _, p := range page {
			if p >= 0 {
				info.Mapped++
			}
		}
	}
	info.Epoch = v.cur.epoch
	info.committed = v.Committed
	return info, nil
}

// FsckVersioned decodes the epoch superblock of a versioned durable file
// without opening the store: frames are verified through a read-only
// checksum reader, so a torn slot is reported as such instead of decoded.
// A sealed batch in the journal is read over the file, as opening the
// store would replay it: a format-1 conversion cut while it applied its
// slot decodes as the converted store.
func FsckVersioned(path string, blockSize, logical int) (*VersionedInfo, error) {
	fs, err := OpenFileStore(path, blockSize+ChecksumOverhead)
	if err != nil {
		return nil, err
	}
	defer fs.Close()
	var dev BlockStore = fs
	if frames := sealedBatch(path, blockSize); frames != nil {
		dev = &redoOverlay{BlockStore: fs, frames: frames}
	}
	rd, err := NewChecksumReader(dev)
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
			sc.add(int(phys), bufs[i])
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
