package storage

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// This file is the concurrent committed-read path that lets the epoch layer
// demote Locked from serving: a ChecksumReader verifies frames over the raw
// device with pooled scratch (safe for any number of concurrent readers),
// and a SplitRW store routes reads to it while mutations keep the full
// journaled write path.

// frameScratch is one reader's or writer's reusable frame scratch.
type frameScratch struct {
	frame []float64
	bytes []byte // one frame's on-media bytes, where a big-endian host serializes it for a check
	slab  []float64
	batch [][]float64
}

// newFrameScratch sizes the scratch for inner blocks of n slots.
func newFrameScratch(n int) frameScratch {
	return frameScratch{frame: make([]float64, n), bytes: make([]byte, 8*n)}
}

// frames returns n reusable inner-block-sized frames backed by one slab,
// growing the scratch on demand.
func (sc *frameScratch) frames(n, inner int) [][]float64 {
	if n*inner > cap(sc.slab) {
		sc.slab = make([]float64, n*inner)
		sc.batch = nil
	}
	if n > len(sc.batch) {
		sc.batch = SliceFrames(sc.slab[:n*inner], n, inner)
	}
	return sc.batch[:n]
}

// ChecksumReader is a read-only view over a checksum-framed device: the
// verified-read half of the frame format Checksummed writes. Built with
// NewChecksumReader it is concurrency-safe, drawing scratch from a pool
// per call; inside a Checksummed it runs over that store's own scratch. It
// does not own the device — Close is a no-op — and it sees exactly the
// bytes on the device (never the Durable staging area): under an epoch
// layer, the committed blocks snapshots read and the blocks the building
// epoch wrote through.
type ChecksumReader struct {
	inner BlockStore
	own   *frameScratch // non-nil: single-threaded, no pool traffic
	pool  sync.Pool
}

// NewChecksumReader builds a concurrent reader over a raw framed device.
// The device's reads must themselves be concurrency-safe (FileStore,
// MappedStore, MemStore all are).
func NewChecksumReader(inner BlockStore) (*ChecksumReader, error) {
	n := inner.BlockSize()
	if n <= ChecksumOverhead {
		return nil, fmt.Errorf("storage: checksum reader needs inner block size > %d, got %d", ChecksumOverhead, n)
	}
	r := &ChecksumReader{inner: inner}
	r.pool.New = func() any {
		sc := newFrameScratch(n)
		return &sc
	}
	return r, nil
}

func (r *ChecksumReader) scratch() *frameScratch {
	if r.own != nil {
		return r.own
	}
	return r.pool.Get().(*frameScratch)
}

func (r *ChecksumReader) done(sc *frameScratch) {
	if r.own == nil {
		r.pool.Put(sc)
	}
}

// BlockSize returns the logical (payload) block size.
func (r *ChecksumReader) BlockSize() int { return r.inner.BlockSize() - ChecksumOverhead }

// ReadBlock reads and verifies one block; unwritten frames read as zeros.
func (r *ChecksumReader) ReadBlock(id int, buf []float64) error {
	if err := checkBlockArgs(r, id, buf); err != nil {
		return err
	}
	sc := r.scratch()
	defer r.done(sc)
	if err := r.inner.ReadBlock(id, sc.frame); err != nil {
		return err
	}
	return deliverFrame(sc.bytes, id, sc.frame, buf)
}

// deliverFrame verifies frame and copies its payload into buf (zeros when
// the block was never written).
func deliverFrame(scratch []byte, id int, frame, buf []float64) error {
	_, version, err := verifyFrame(scratch, len(buf), id, frame)
	if err != nil {
		return err
	}
	if version == FrameUnwritten {
		ZeroFill(buf)
		return nil
	}
	copy(buf, frame[:len(buf)])
	return nil
}

// ReadBlocks implements BatchReader. When the device exposes zero-copy
// frame views (MappedStore), CRCs verify over the mapped bytes in place;
// otherwise one vectored read lands in the scratch slab and verifies there.
func (r *ChecksumReader) ReadBlocks(ids []int, bufs [][]float64) error {
	if err := checkBatchArgs(r, ids, bufs); err != nil {
		return err
	}
	if fv, ok := r.inner.(FrameViewer); ok {
		return r.readBlocksViews(fv, ids, bufs)
	}
	sc := r.scratch()
	defer r.done(sc)
	frames := sc.frames(len(ids), r.inner.BlockSize())
	if err := ReadBlocksOf(r.inner, ids, frames); err != nil {
		return err
	}
	for i, id := range ids {
		if err := deliverFrame(sc.bytes, id, frames[i], bufs[i]); err != nil {
			return err
		}
	}
	return nil
}

// readBlocksViews is the zero-copy leg: borrow, verify in place, decode
// straight into the caller's buffers, release. The borrow never escapes
// this call — the discipline the scratch-escape analyzer polices.
func (r *ChecksumReader) readBlocksViews(fv FrameViewer, ids []int, bufs [][]float64) (err error) {
	views, err := fv.ViewFrames(ids)
	if err != nil {
		return err
	}
	defer views.Release()
	defer debug.SetPanicOnFault(guardFault())
	defer recoverFault(&err)
	p := r.BlockSize()
	for i, id := range ids {
		fb := views.Frame(i)
		if fb == nil {
			ZeroFill(bufs[i])
			continue
		}
		_, version, err := verifyFrameBytes(p, id, fb)
		if err != nil {
			return err
		}
		if version == FrameUnwritten {
			ZeroFill(bufs[i])
			continue
		}
		decodeFrames(fb, bufs[i])
	}
	return nil
}

// WriteBlock fails: this view is read-only by construction.
func (r *ChecksumReader) WriteBlock(id int, data []float64) error {
	return fmt.Errorf("storage: checksum reader is read-only (block %d)", id)
}

// Close is a no-op: the write path owns the device.
func (r *ChecksumReader) Close() error { return nil }

// ReadOnlyView returns a concurrency-safe read view over the Durable's
// data device, bypassing the journal and the staging area. It is the read
// leg of a SplitRW under an epoch layer, which writes every block through
// (ShadowFrom): epoch tables only ever reference committed physical
// blocks, so the view sees exactly the bytes a pinned snapshot needs, and
// the builder's blocks too. The Durable keeps owning the device.
func (d *Durable) ReadOnlyView() (*ChecksumReader, error) {
	return NewChecksumReader(d.data.inner)
}

// SplitRW routes reads to a concurrent read path and everything else —
// writes, durability points, verification, repair — to the full write
// path. Both legs must bottom out at the same medium. It is how the epoch
// layer demotes Locked from serving reads: only mutations (already
// serialized by the maintenance engines) pay the write lock.
type SplitRW struct {
	r BlockStore
	w BlockStore
}

// NewSplitRW pairs a read leg with a write leg of equal block size.
func NewSplitRW(r, w BlockStore) (*SplitRW, error) {
	if r.BlockSize() != w.BlockSize() {
		return nil, fmt.Errorf("storage: split read block size %d != write block size %d", r.BlockSize(), w.BlockSize())
	}
	return &SplitRW{r: r, w: w}, nil
}

// BlockSize returns the common block size.
func (s *SplitRW) BlockSize() int { return s.r.BlockSize() }

// ReadBlock reads through the concurrent leg.
func (s *SplitRW) ReadBlock(id int, buf []float64) error { return s.r.ReadBlock(id, buf) }

// ReadBlocks implements BatchReader through the concurrent leg.
func (s *SplitRW) ReadBlocks(ids []int, bufs [][]float64) error {
	return ReadBlocksOf(s.r, ids, bufs)
}

// WriteBlock writes through the full write path.
func (s *SplitRW) WriteBlock(id int, data []float64) error { return s.w.WriteBlock(id, data) }

// WriteBlocks implements BatchWriter through the full write path.
func (s *SplitRW) WriteBlocks(ids []int, data [][]float64) error {
	return WriteBlocksOf(s.w, ids, data)
}

// Sync forwards the durability barrier to the write path, which owns the
// medium.
func (s *SplitRW) Sync() error { return SyncIfAble(s.w) }

// Commit forwards the transactional group boundary to the write path.
func (s *SplitRW) Commit() error { return CommitIfAble(s.w) }

// Rollback forwards to the write path, which holds the staged writes, and
// reports whether it staged them.
func (s *SplitRW) Rollback() bool { return RollbackIfAble(s.w) }

// VerifyBlocks routes verification through the write path, which knows
// about staged-but-uncommitted frames.
func (s *SplitRW) VerifyBlocks(ids []int) (corrupt []int, err error) {
	return VerifyBlocksOf(s.w, ids)
}

// RepairBlock routes repair through the write path.
func (s *SplitRW) RepairBlock(id int) (bool, error) { return RepairBlockOf(s.w, id) }

// Close closes the write path (which owns the medium), then the read leg
// (a no-op for ChecksumReader).
func (s *SplitRW) Close() error {
	err := s.w.Close()
	if cerr := s.r.Close(); err == nil {
		err = cerr
	}
	return err
}
