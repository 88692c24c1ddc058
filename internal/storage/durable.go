package storage

import (
	"errors"
	"fmt"
	"os"
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
// Durable is not safe for concurrent use; wrap it in Locked if needed.
type Durable struct {
	data      *Checksummed
	journal   *Journal
	pending   map[int][]float64
	lastBatch map[int][]float64 // post-images of the last committed batch (repair source)
	epoch     uint64
	recovered int // blocks replayed by the last recovery, -1 if none
	closed    bool
	ids       []int       // Commit's sorted batch, reused
	blocks    [][]float64 // its post-images, reused
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
// file. Ordering: Commit syncs the data device — for a MappedStore that is
// msync(MS_SYNC) then fsync — strictly before the journal is retired,
// so the mapped store inherits the journal protocol's crash safety.
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

// WriteBlock stages a block; it reaches the medium on the next Commit.
func (d *Durable) WriteBlock(id int, data []float64) error {
	if d.closed {
		return ErrClosed
	}
	if err := checkBlockArgs(d, id, data); err != nil {
		return err
	}
	d.stage(id, data)
	return nil
}

// WriteBlocks implements BatchWriter by staging the whole batch; it costs
// no device I/O until Commit, exactly like the per-block loop.
func (d *Durable) WriteBlocks(ids []int, data [][]float64) error {
	if d.closed {
		return ErrClosed
	}
	if err := checkBatchArgs(d, ids, data); err != nil {
		return err
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

// Commit makes all staged writes durable as one atomic batch. On error the
// staged writes remain pending (a transient storage error can be retried);
// after a simulated power cut every subsequent operation fails.
func (d *Durable) Commit() error {
	if d.closed {
		return ErrClosed
	}
	if len(d.pending) == 0 {
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
	if len(ids) <= maxRetainedBlocks {
		d.lastBatch = d.pending
	} else {
		d.lastBatch = nil
	}
	d.pending = make(map[int][]float64)
	clear(blocks) // the reused slice must not keep a dropped batch alive
	return nil
}

// VerifyBlocks implements Verifier: staged blocks verify clean (their
// post-images live in memory and shadow the medium), everything else is
// frame-verified by the checksummed data store.
func (d *Durable) VerifyBlocks(ids []int) (corrupt []int, err error) {
	if d.closed {
		return nil, ErrClosed
	}
	var onMedia []int
	for _, id := range ids {
		if _, staged := d.pending[id]; !staged {
			onMedia = append(onMedia, id)
		}
	}
	if len(onMedia) == 0 {
		return nil, nil
	}
	return d.data.VerifyBlocks(onMedia)
}

// RepairBlock implements Repairer: it rolls a corrupt block forward from
// the newest post-image the store still holds — the staging overlay (an
// uncommitted write already shadows the bad frame) or the retained copy of
// the last committed batch (the journal's contents before it was
// truncated). repaired=false with a nil error means no source covers the
// block: its last write predates the retained batch and only a rebuild
// (re-materialize) can recover it.
func (d *Durable) RepairBlock(id int) (repaired bool, err error) {
	if d.closed {
		return false, ErrClosed
	}
	if id < 0 {
		return false, fmt.Errorf("storage: negative block id %d", id)
	}
	if _, staged := d.pending[id]; staged {
		// The overlay already serves reads; the bad frame is overwritten at
		// the next Commit. Nothing to do on the medium now.
		return true, nil
	}
	data, ok := d.lastBatch[id]
	if !ok {
		return false, nil
	}
	// Rewrite the frame under the epoch it was committed with and make it
	// stable before reporting success.
	if err := d.data.SetEpoch(d.epoch); err != nil {
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

// Rollback discards all staged writes. It reports true: a Durable stages
// every write.
func (d *Durable) Rollback() bool {
	d.pending = make(map[int][]float64)
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
}

// Clean reports whether the store needs no attention: every frame verifies
// and no batch is pending in the journal.
func (r *FsckReport) Clean() bool {
	return len(r.Corrupt) == 0 && !r.JournalCommitted && r.JournalErr == ""
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
	st := j.Inspect()
	rep.JournalEntries = st.Entries
	rep.JournalCommitted = st.Committed
	rep.JournalEpoch = st.Epoch
	if st.Err != nil {
		rep.JournalErr = st.Err.Error()
	}
	return rep, nil
}
