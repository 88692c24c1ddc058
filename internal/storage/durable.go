package storage

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
)

// Durable layers crash safety over a pair of block stores: a checksummed
// data store and a write-ahead block journal. Writes are staged in memory
// and become visible on the medium only through Commit, which runs the
// journal protocol:
//
//	journal post-images → fsync → commit record → fsync →
//	apply to data store → fsync → truncate journal → fsync
//
// A crash at any point leaves the store recoverable: opening it replays a
// sealed batch (roll forward to the post-batch state) or discards an
// unsealed one (the data store still holds the pre-batch state). Reads see
// staged writes immediately, so the engines above are oblivious to the
// staging.
//
// Under a versioned store the journal steps aside (WriteThrough): the
// epoch layer writes every block of an epoch to a block no committed epoch
// references and orders its own syncs, so every write is framed and
// written straight to the data device, never staged or journaled, and
// Commit only retires the batch. The Durable stays in that stack to replay
// a journal left by an older writer on open and to keep the last batch as
// the repair source.
//
// Durable is not safe for concurrent use; wrap it in Locked if needed.
type Durable struct {
	data      *Checksummed
	journal   *Journal
	pending   map[int][]float64
	lastBatch map[int][]float64 // post-images of the last batch written through (repair source)
	epoch     uint64
	recovered int // blocks replayed by the last recovery, -1 if none
	closed    bool
	ids       []int       // Commit's sorted batch, reused
	blocks    [][]float64 // its post-images, reused

	// through writes every block straight to the data device (WriteThrough).
	through bool
	// direct reports blocks written through since the last Commit; batch
	// holds copies of them for repair unless dropped (the batch outgrew
	// maxRetainedBlocks), and spare the buffers of retired batches.
	direct  bool
	dropped bool
	batch   map[int][]float64
	spare   [][]float64
}

// maxRetainedBlocks caps the in-memory copy of the last committed batch
// kept as a repair source. The journal itself is truncated when a batch
// retires, so without this copy a freshly opened store has nothing to roll
// a rotted block forward from; batches above the cap are simply not
// retained (repair then reports unrepairable and the operator rebuilds).
const maxRetainedBlocks = 4096

// NewDurable builds a durable store over raw data and journal block
// stores and runs recovery. For a logical block size L, data must hold
// blocks of L+ChecksumOverhead slots and journal blocks of
// L+JournalOverhead slots; the journal store must support Truncate.
// Both stores are owned and closed by the Durable.
func NewDurable(data, journal BlockStore) (*Durable, error) {
	logical := data.BlockSize() - ChecksumOverhead
	chk, err := NewChecksummed(data)
	if err != nil {
		return nil, err
	}
	j, err := NewJournal(journal, logical)
	if err != nil {
		return nil, err
	}
	d := &Durable{data: chk, journal: j, pending: make(map[int][]float64), recovered: -1}
	if err := d.recover(); err != nil {
		return nil, err
	}
	return d, nil
}

// WalPath returns the journal sidecar path for a durable store at path.
func WalPath(path string) string { return path + ".wal" }

func wrapPlan(bs BlockStore, plan *CrashPlan) BlockStore {
	if plan == nil {
		return bs
	}
	return NewCrashStore(bs, plan)
}

// openDurableFiles is the one opener behind the Create/Open × pread/mapped
// names below: data device at path, journal at WalPath(path), recovery run.
// wrap, when non-nil, is applied to the raw data device below the checksum
// layer — the seam where fault injection (Faulty) slides under a real
// store; the journal device is not wrapped (injected journal corruption
// would model a different fault class, see ErrJournalCorrupt) and stays a
// FileStore even when the data device is mapped: journal traffic is
// sequential write-mostly and gains nothing from a mapping. plan, when
// non-nil, routes all physical writes through a CrashStore for power-cut
// testing. Opening recreates a missing journal sidecar (e.g. deleted after a
// clean shutdown) empty. Both files are closed again on any error.
func openDurableFiles(path string, blockSize int, create, mapped bool, plan *CrashPlan, wrap func(BlockStore) BlockStore) (*Durable, error) {
	dataFS, err := openFile(path, blockSize+ChecksumOverhead, create)
	if err != nil {
		return nil, err
	}
	walFS, err := openFile(WalPath(path), blockSize+JournalOverhead, create)
	if !create && errors.Is(err, os.ErrNotExist) {
		walFS, err = NewFileStore(WalPath(path), blockSize+JournalOverhead)
	}
	if err != nil {
		_ = dataFS.Close() // best-effort cleanup; the journal-open error surfaces
		return nil, err
	}
	var dev BlockStore = dataFS
	if mapped {
		ms, err := mapFile(dataFS, nil) // closes dataFS when it fails
		if err != nil {
			_ = walFS.Close() // best-effort cleanup; the mmap error surfaces
			return nil, err
		}
		dev = ms
	}
	data := dev
	if wrap != nil {
		data = wrap(data)
	}
	d, err := NewDurable(wrapPlan(data, plan), wrapPlan(walFS, plan))
	if err != nil {
		_ = dev.Close() // best-effort cleanup; the recovery error surfaces
		_ = walFS.Close()
		return nil, err
	}
	return d, nil
}

// CreateDurable creates (truncating) a file-backed durable store at path,
// with its journal at WalPath(path).
func CreateDurable(path string, blockSize int, plan *CrashPlan) (*Durable, error) {
	return openDurableFiles(path, blockSize, true, false, plan, nil)
}

// CreateDurableWrapped is CreateDurable with a device-wrapping hook.
func CreateDurableWrapped(path string, blockSize int, plan *CrashPlan, wrap func(BlockStore) BlockStore) (*Durable, error) {
	return openDurableFiles(path, blockSize, true, false, plan, wrap)
}

// CreateDurableMapped is CreateDurableWrapped with an mmap-backed data
// device: committed blocks read zero-copy through the Checksummed frame
// views while writes keep the pwrite+journal protocol unchanged. The
// data layout is FileStore's, so Fsck and OpenDurable work on the same
// file. Ordering: Commit syncs the data device (its file's fsync: the
// mapping is read-only) strictly before the journal is retired, so the
// mapped store inherits the journal protocol's crash safety. Every
// file-backed durable Store is opened this way.
func CreateDurableMapped(path string, blockSize int, plan *CrashPlan, wrap func(BlockStore) BlockStore) (*Durable, error) {
	return openDurableFiles(path, blockSize, true, true, plan, wrap)
}

// OpenDurable opens an existing file-backed durable store, replaying or
// discarding any interrupted batch left in its journal.
func OpenDurable(path string, blockSize int, plan *CrashPlan) (*Durable, error) {
	return openDurableFiles(path, blockSize, false, false, plan, nil)
}

// OpenDurableWrapped is OpenDurable with the same device-wrapping hook as
// CreateDurableWrapped.
func OpenDurableWrapped(path string, blockSize int, plan *CrashPlan, wrap func(BlockStore) BlockStore) (*Durable, error) {
	return openDurableFiles(path, blockSize, false, false, plan, wrap)
}

// OpenDurableMapped is OpenDurableWrapped with an mmap-backed data
// device (see CreateDurableMapped).
func OpenDurableMapped(path string, blockSize int, plan *CrashPlan, wrap func(BlockStore) BlockStore) (*Durable, error) {
	return openDurableFiles(path, blockSize, false, true, plan, wrap)
}

// recover replays a sealed journal batch into the data store, or discards
// an unsealed one.
func (d *Durable) recover() error {
	batch, err := d.journal.Redo()
	if err != nil {
		return err
	}
	if !batch.Committed {
		if batch.Entries > 0 {
			// Unsealed batch: the data store was never touched; drop it.
			if err := d.journal.Reset(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := WriteBlocksOf(d.data.inner, batch.IDs, batch.Frames); err != nil {
		return err
	}
	if err := SyncIfAble(d.data.inner); err != nil {
		return err
	}
	if err := d.journal.Reset(); err != nil {
		return err
	}
	d.epoch = batch.Epoch
	d.recovered = len(batch.IDs)
	return nil
}

// Recovered reports how many blocks the last open replayed from the
// journal; ok is false when no sealed batch was found.
func (d *Durable) Recovered() (blocks int, ok bool) {
	if d.recovered < 0 {
		return 0, false
	}
	return d.recovered, true
}

// BlockSize returns the logical block size.
func (d *Durable) BlockSize() int { return d.data.BlockSize() }

// Epoch returns the epoch of the last committed batch.
func (d *Durable) Epoch() uint64 { return d.epoch }

// Pending returns the number of staged (uncommitted) blocks.
func (d *Durable) Pending() int { return len(d.pending) }

// ReadBlock reads through the staging overlay: staged writes are visible
// immediately, everything else comes (checksum-verified) from the data
// store.
func (d *Durable) ReadBlock(id int, buf []float64) error {
	if d.closed {
		return ErrClosed
	}
	if err := checkBlockArgs(d, id, buf); err != nil {
		return err
	}
	if data, ok := d.pending[id]; ok {
		copy(buf, data)
		return nil
	}
	return d.data.ReadBlock(id, buf)
}

// ReadBlocks implements BatchReader: staged blocks are copied from the
// overlay and the rest are fetched from the data store as one vectored
// (checksum-verified) read.
func (d *Durable) ReadBlocks(ids []int, bufs [][]float64) error {
	if d.closed {
		return ErrClosed
	}
	if err := checkBatchArgs(d, ids, bufs); err != nil {
		return err
	}
	var missIDs []int
	var missBufs [][]float64
	for i, id := range ids {
		if data, ok := d.pending[id]; ok {
			copy(bufs[i], data)
		} else {
			missIDs = append(missIDs, id)
			missBufs = append(missBufs, bufs[i])
		}
	}
	if len(missIDs) == 0 {
		return nil
	}
	return d.data.ReadBlocks(missIDs, missBufs)
}

// WriteBlock stages a block; it reaches the medium on the next Commit. In
// write-through mode it is written to the data device at once instead.
func (d *Durable) WriteBlock(id int, data []float64) error {
	if d.closed {
		return ErrClosed
	}
	if err := checkBlockArgs(d, id, data); err != nil {
		return err
	}
	if d.through {
		return d.writeThrough([]int{id}, [][]float64{data})
	}
	d.stage(id, data)
	return nil
}

// WriteBlocks implements BatchWriter by staging the whole batch; it costs
// no device I/O until Commit, exactly like the per-block loop. Written
// through, it is one vectored write.
func (d *Durable) WriteBlocks(ids []int, data [][]float64) error {
	if d.closed {
		return ErrClosed
	}
	if err := checkBatchArgs(d, ids, data); err != nil {
		return err
	}
	if d.through {
		return d.writeThrough(ids, data)
	}
	for i, id := range ids {
		d.stage(id, data[i])
	}
	return nil
}

func (d *Durable) stage(id int, data []float64) {
	dst, ok := d.pending[id]
	if !ok {
		dst = make([]float64, len(data))
		d.pending[id] = dst
	}
	copy(dst, data)
}

// WriteThrough makes every later write bypass the journal: each block is
// framed under the next batch's epoch and written to the data device at
// once, and the layer above owns write order and syncs (Sync). A Durable
// journals every write until this is called.
func (d *Durable) WriteThrough() { d.through = true }

// writeThrough frames a batch and writes it to the data device, keeping a
// copy of each block as the repair source.
func (d *Durable) writeThrough(ids []int, data [][]float64) error {
	if err := d.data.SetEpoch(d.epoch + 1); err != nil {
		return err
	}
	d.direct = true
	for i, id := range ids {
		d.retain(id, data[i])
	}
	return d.data.WriteBlocks(ids, data)
}

// retain copies a written-through block into the batch, reusing the
// buffers of retired batches. A batch that outgrows maxRetainedBlocks is
// dropped whole.
func (d *Durable) retain(id int, data []float64) {
	if d.dropped {
		return
	}
	if d.batch == nil {
		d.batch = make(map[int][]float64)
	}
	dst, ok := d.batch[id]
	if !ok {
		if len(d.batch) == maxRetainedBlocks {
			d.recycle(d.batch)
			d.dropped = true
			return
		}
		if n := len(d.spare); n > 0 {
			dst, d.spare = d.spare[n-1], d.spare[:n-1]
		} else {
			dst = make([]float64, len(data))
		}
		d.batch[id] = dst
	}
	copy(dst, data)
}

// retire makes the written-through batch the repair source and starts the
// next one. The spare buffers are trimmed to the size of the batch just
// retired, what a steady stream of like batches reuses, so a whole-domain
// write does not leave its buffers behind.
func (d *Durable) retire() {
	old := d.lastBatch
	d.recycle(old)
	d.lastBatch = d.batch
	if d.dropped {
		d.lastBatch = nil
	}
	d.batch = old
	d.direct, d.dropped = false, false
	if keep := len(d.lastBatch); len(d.spare) > keep {
		clear(d.spare[keep:])
		d.spare = d.spare[:keep]
	}
}

// recycle moves a batch's buffers to the spare list and empties it.
func (d *Durable) recycle(batch map[int][]float64) {
	for _, b := range batch {
		d.spare = append(d.spare, b)
	}
	clear(batch)
}

// Sync makes every block written through durable: it syncs the data
// device.
func (d *Durable) Sync() error {
	if d.closed {
		return ErrClosed
	}
	return SyncIfAble(d.data.inner)
}

// Commit makes all staged writes durable as one atomic batch. On error the
// staged writes remain pending (a transient storage error can be retried);
// after a simulated power cut every subsequent operation fails.
func (d *Durable) Commit() error {
	if d.closed {
		return ErrClosed
	}
	if len(d.pending) == 0 {
		if d.direct {
			d.epoch++
			d.retire()
		}
		return nil
	}
	ids := d.ids[:0]
	for id := range d.pending {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	blocks := d.blocks[:0]
	for _, id := range ids {
		blocks = append(blocks, d.pending[id])
	}
	d.ids, d.blocks = ids, blocks
	epoch := d.epoch + 1
	if err := d.data.SetEpoch(epoch); err != nil {
		return err
	}
	// Each block is framed, and so checked, once: the journal records carry
	// the frames' check words, and the apply writes the same frames.
	frames := d.data.frameBatch(blocks)
	if err := d.journal.LogFrames(epoch, ids, frames); err != nil {
		return fmt.Errorf("storage: journal batch: %w", err)
	}
	// Apply as one vectored write: ids are sorted, so consecutive tiles of
	// a maintenance batch coalesce into single pwrites at the device while
	// the per-block frame bytes (and write order) stay identical.
	if err := WriteBlocksOf(d.data.inner, ids, frames); err != nil {
		return fmt.Errorf("storage: apply batch of %d blocks: %w", len(ids), err)
	}
	if err := SyncIfAble(d.data.inner); err != nil {
		return fmt.Errorf("storage: sync data: %w", err)
	}
	if err := d.journal.Reset(); err != nil {
		return fmt.Errorf("storage: retire journal: %w", err)
	}
	d.epoch = epoch
	clear(d.pending)
	clear(blocks) // the reused slice must not keep a dropped batch alive
	return nil
}

// VerifyBlocks implements Verifier: the frames on the medium are verified
// by the checksummed data store.
func (d *Durable) VerifyBlocks(ids []int) (corrupt []int, err error) {
	if d.closed {
		return nil, ErrClosed
	}
	return d.data.VerifyBlocks(ids)
}

// RepairBlock implements Repairer: it rolls a corrupt block forward from
// the newest post-image the store still holds of the blocks it wrote
// through: the copy of one written since the last commit, or the retained
// copy of the last committed batch. A journaled batch is not retained (the
// appender, which journals, neither verifies nor repairs). repaired=false
// with a nil error means no source covers the block: its last write
// predates the retained batch and only a rebuild (re-materialize) can
// recover it.
func (d *Durable) RepairBlock(id int) (repaired bool, err error) {
	if d.closed {
		return false, ErrClosed
	}
	if id < 0 {
		return false, fmt.Errorf("storage: negative block id %d", id)
	}
	// A block written through this batch is rewritten under the batch's
	// epoch, one of the last batch under the epoch it was committed with.
	data, ok := d.batch[id]
	epoch := d.epoch + 1
	if !ok {
		data, ok = d.lastBatch[id]
		epoch = d.epoch
	}
	if !ok {
		return false, nil
	}
	// Rewrite the frame and make it stable before reporting success.
	if err := d.data.SetEpoch(epoch); err != nil {
		return false, err
	}
	if err := d.data.WriteBlock(id, data); err != nil {
		return false, fmt.Errorf("storage: repair block %d: %w", id, err)
	}
	if err := SyncIfAble(d.data.inner); err != nil {
		return false, fmt.Errorf("storage: repair block %d: sync: %w", id, err)
	}
	return true, nil
}

// Rollback discards all staged writes, and the repair copies of blocks
// written through (their frames stay on the medium, where nothing
// committed references them). It reports true: a Durable keeps every
// write out of the committed state.
func (d *Durable) Rollback() bool {
	d.pending = make(map[int][]float64)
	d.recycle(d.batch)
	d.direct, d.dropped = false, false
	return true
}

// Close commits staged writes and closes both underlying stores. The
// stores are closed even when the final commit fails (e.g. after a
// simulated crash); the first error is returned.
func (d *Durable) Close() error {
	if d.closed {
		return nil
	}
	err := d.Commit()
	d.closed = true
	if cerr := d.data.Close(); err == nil {
		err = cerr
	}
	if cerr := d.journal.Close(); err == nil {
		err = cerr
	}
	return err
}

// FsckReport is the result of checking a durable store's on-disk state.
type FsckReport struct {
	Path      string
	BlockSize int   // logical coefficients per block
	Blocks    int   // physical frames present in the data file
	Written   int   // frames holding a stored block
	WrittenV1 int   // of those, frames still in the read-only v1 format; the rest are v2
	Corrupt   []int // block ids failing checksum verification
	MaxEpoch  uint64

	JournalPresent   bool
	JournalEntries   int
	JournalCommitted bool // a sealed batch awaits replay (open the store to recover)
	JournalEpoch     uint64
	JournalErr       string // non-empty when the journal is unrecoverable

	// Versioned holds the decoded epoch superblock when the caller knows the
	// file carries the MVCC layout (see shiftsplit.Fsck); nil otherwise.
	Versioned *VersionedInfo
	// VersionedErr is non-empty when the file carries the MVCC layout but
	// its superblock or table does not decode; Versioned then holds only
	// the two slots' states, or is nil when they could not be read.
	VersionedErr string
	// Upgrade is non-empty when the store is in a layout the next open
	// rewrites, and says which (see shiftsplit.Fsck).
	Upgrade string
	// Unreachable lists frames failing verification in blocks no committed
	// epoch of a versioned store references: free space a crash tore, or
	// the stale superblock slot. Nothing reads them and the next allocation
	// overwrites them, so they leave the store clean; they are not in
	// Corrupt.
	Unreachable []int
}

// Clean reports whether the store needs no attention: every frame holding
// committed state verifies, the superblock decodes, and no batch is pending
// in the journal.
func (r *FsckReport) Clean() bool {
	return len(r.Corrupt) == 0 && !r.JournalCommitted && r.JournalErr == "" && r.VersionedErr == ""
}

// NeedsRecovery reports whether opening the store would replay a batch.
func (r *FsckReport) NeedsRecovery() bool { return r.JournalCommitted }

// Fsck verifies a file-backed durable store without modifying it: every
// block frame is checksum-checked and the journal is inspected for an
// interrupted batch.
func Fsck(path string, blockSize int) (*FsckReport, error) {
	rep := &FsckReport{Path: path, BlockSize: blockSize}
	dataFS, err := OpenFileStore(path, blockSize+ChecksumOverhead)
	if err != nil {
		return nil, err
	}
	defer dataFS.Close()
	chk, err := NewChecksummed(dataFS)
	if err != nil {
		return nil, err
	}
	n, err := dataFS.NumBlocks()
	if err != nil {
		return nil, err
	}
	rep.Blocks = n
	for id := 0; id < n; id++ {
		epoch, version, err := chk.ReadMeta(id)
		switch {
		case err != nil:
			rep.Corrupt = append(rep.Corrupt, id)
		case version != FrameUnwritten:
			rep.Written++
			if version == FrameV1 {
				rep.WrittenV1++
			}
			if epoch > rep.MaxEpoch {
				rep.MaxEpoch = epoch
			}
		}
	}
	walFS, err := OpenFileStore(WalPath(path), blockSize+JournalOverhead)
	if errors.Is(err, os.ErrNotExist) {
		return rep, nil
	}
	if err != nil {
		return nil, err
	}
	defer walFS.Close()
	rep.JournalPresent = true
	j, err := NewJournal(walFS, blockSize)
	if err != nil {
		return nil, err
	}
	batch, err := j.Redo()
	rep.JournalEntries = batch.Entries
	rep.JournalCommitted = batch.Committed
	rep.JournalEpoch = batch.Epoch
	if err != nil {
		rep.JournalErr = err.Error()
	}
	if batch.Committed {
		// Replay rewrites these frames whole: one that fails verification
		// is what a cut apply tore, not corruption.
		covered := make(map[int]bool, len(batch.IDs))
		for _, id := range batch.IDs {
			covered[id] = true
		}
		rep.Corrupt = slices.DeleteFunc(rep.Corrupt, func(id int) bool { return covered[id] })
	}
	return rep, nil
}

// sealedBatch returns the frames of the sealed batch the journal of the
// durable store at path holds, by block id, or nil when it holds none (or
// cannot be read: Fsck reports that).
func sealedBatch(path string, blockSize int) map[int][]float64 {
	walFS, err := OpenFileStore(WalPath(path), blockSize+JournalOverhead)
	if err != nil {
		return nil
	}
	defer walFS.Close()
	j, err := NewJournal(walFS, blockSize)
	if err != nil {
		return nil
	}
	batch, err := j.Redo()
	if err != nil || !batch.Committed {
		return nil
	}
	frames := make(map[int][]float64, len(batch.IDs))
	for i, id := range batch.IDs {
		frames[id] = batch.Frames[i]
	}
	return frames
}

// redoOverlay reads a data device as the replay of a sealed batch will
// leave it.
type redoOverlay struct {
	BlockStore
	frames map[int][]float64
}

func (o *redoOverlay) ReadBlock(id int, buf []float64) error {
	if f, ok := o.frames[id]; ok {
		copy(buf, f)
		return nil
	}
	return o.BlockStore.ReadBlock(id, buf)
}
