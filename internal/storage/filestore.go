package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
)

// FileStore is a BlockStore backed by a real file, one block per
// blockSize*8-byte extent, addressed by offset. The paper's experiments were
// "accurate implementations of the operations on real disks with real disk
// blocks" (§6); FileStore is that code path, while the counted MemStore is
// used where only deterministic I/O counts matter.
//
// ReadBlock and WriteBlock use positional file I/O (pread/pwrite) with
// per-call scratch buffers, so a FileStore is safe for concurrent use.
// ReadBlocks/WriteBlocks coalesce runs of consecutive block ids into a
// single pread/pwrite over a run-sized buffer; Preads/Pwrites count the
// positional I/O calls issued, the syscall proxy behind the benchmark's
// device.read_calls_per_op row.
type FileStore struct {
	f          *os.File
	blockSize  int
	scratch    sync.Pool // *[]byte of 8*blockSize bytes
	runScratch sync.Pool // *[]byte sized for multi-block runs, grown on demand
	preads     atomic.Int64
	pwrites    atomic.Int64
	closed     atomic.Bool
}

// maxRunBlocks caps how many consecutive blocks one coalesced pread/pwrite
// covers. Unbounded runs would be fewest-syscalls-possible, but decoding a
// multi-megabyte slab after the copy walks it cold; run-sized chunks keep
// the frame bytes in cache while they are encoded or decoded, and 32 blocks
// already cuts syscalls per batch by 32x.
const maxRunBlocks = 64

func (s *FileStore) frameBytes() int { return 8 * s.blockSize }

// classifyWriteErr labels operating-system write failures with their
// taxonomy class: ENOSPC and EDQUOT mean the medium is full, which callers
// must treat as ErrNoSpace (stop the batch) rather than retry.
func classifyWriteErr(err error) error {
	if errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EDQUOT) {
		return WithClass(err, ErrNoSpace)
	}
	return err
}

func (s *FileStore) getScratch() *[]byte {
	if b, ok := s.scratch.Get().(*[]byte); ok {
		return b
	}
	b := make([]byte, s.frameBytes())
	return &b
}

// getRunBuf returns a pooled buffer of at least n bytes for a multi-block
// run, so steady-state batches allocate nothing per call.
func (s *FileStore) getRunBuf(n int) *[]byte {
	if bp, ok := s.runScratch.Get().(*[]byte); ok && cap(*bp) >= n {
		*bp = (*bp)[:n]
		return bp
	}
	b := make([]byte, n)
	return &b
}

// openFile opens the backing file of a store at path, truncating (and
// creating it if needed) when create is set.
func openFile(path string, blockSize int, create bool) (*FileStore, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("storage: block size %d", blockSize)
	}
	flag := os.O_RDWR
	if create {
		flag |= os.O_CREATE | os.O_TRUNC
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	return &FileStore{f: f, blockSize: blockSize}, nil
}

// NewFileStore creates (truncating) a file-backed store at path.
func NewFileStore(path string, blockSize int) (*FileStore, error) {
	return openFile(path, blockSize, true)
}

// OpenFileStore opens an existing file-backed store at path.
func OpenFileStore(path string, blockSize int) (*FileStore, error) {
	return openFile(path, blockSize, false)
}

// BlockSize returns the number of coefficients per block.
func (s *FileStore) BlockSize() int { return s.blockSize }

// ReadBlock reads block id; extents beyond the current file size read as
// zeros, modeling a lazily allocated device.
func (s *FileStore) ReadBlock(id int, buf []float64) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if err := checkBlockArgs(s, id, buf); err != nil {
		return err
	}
	bp := s.getScratch()
	defer s.scratch.Put(bp)
	b := *bp
	off := int64(id) * int64(len(b))
	s.preads.Add(1)
	n, err := s.f.ReadAt(b, off)
	if err != nil && err != io.EOF {
		return fmt.Errorf("storage: read block %d: %w", id, err)
	}
	clear(b[n:])
	decodeFrames(b, buf)
	return nil
}

// runSpan is one maximal run of consecutive block ids within a batch,
// as index bounds into the ids slice.
type runSpan struct{ start, end int }

// coalesceRuns walks ids as maximal runs of consecutive block ids, each at
// most maxRunBlocks long — the unit one pread/pwrite covers. It returns the
// run that starts at index from; a caller loops from 0 until a run starts
// at len(ids).
func coalesceRuns(ids []int, from int) runSpan {
	end := min(from+1, len(ids))
	for end < len(ids) && end-from < maxRunBlocks && ids[end] == ids[end-1]+1 {
		end++
	}
	return runSpan{from, end}
}

// runBuf returns a pooled buffer holding blocks frames, and the pool it
// goes back to: single frames and multi-block runs are pooled apart so the
// per-block path never inherits (or discards) a run-sized buffer.
func (s *FileStore) runBuf(blocks int) (*[]byte, *sync.Pool) {
	if blocks == 1 {
		return s.getScratch(), &s.scratch
	}
	return s.getRunBuf(blocks * s.frameBytes()), &s.runScratch
}

// decodeFrames decodes consecutive little-endian frames from b, one per
// buffer.
func decodeFrames(b []byte, bufs ...[]float64) {
	for _, buf := range bufs {
		for j := range buf {
			buf[j] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*j:]))
		}
		b = b[8*len(buf):]
	}
}

// encodeFrames is the inverse of decodeFrames.
func encodeFrames(b []byte, data ...[]float64) {
	for _, d := range data {
		for j, v := range d {
			binary.LittleEndian.PutUint64(b[8*j:], math.Float64bits(v))
		}
		b = b[8*len(d):]
	}
}

// readRun preads run r of ids into a pooled buffer and decodes it into its
// buffers, extents beyond the file reading as zeros.
func (s *FileStore) readRun(ids []int, bufs [][]float64, r runSpan) error {
	bp, pool := s.runBuf(r.end - r.start)
	defer pool.Put(bp)
	s.preads.Add(1)
	n, err := s.f.ReadAt(*bp, int64(ids[r.start])*int64(s.frameBytes()))
	if err != nil && err != io.EOF {
		return fmt.Errorf("storage: read blocks %d..%d: %w", ids[r.start], ids[r.end-1], err)
	}
	clear((*bp)[n:])
	decodeFrames(*bp, bufs[r.start:r.end]...)
	return nil
}

// ReadBlocks implements BatchReader: each maximal run of consecutive block
// ids becomes one pread over a run-sized buffer, decoded before the next
// run is read, with extents beyond the file reading as zeros exactly as
// ReadBlock does. Errors surface for the first failing run in id order.
func (s *FileStore) ReadBlocks(ids []int, bufs [][]float64) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if err := checkBatchArgs(s, ids, bufs); err != nil {
		return err
	}
	for r := coalesceRuns(ids, 0); r.start < len(ids); r = coalesceRuns(ids, r.end) {
		if err := s.readRun(ids, bufs, r); err != nil {
			return err
		}
	}
	return nil
}

// WriteBlock writes block id at its offset, growing the file as needed.
func (s *FileStore) WriteBlock(id int, data []float64) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if err := checkBlockArgs(s, id, data); err != nil {
		return err
	}
	bp := s.getScratch()
	defer s.scratch.Put(bp)
	b := *bp
	encodeFrames(b, data)
	off := int64(id) * int64(len(b))
	s.pwrites.Add(1)
	if _, err := s.f.WriteAt(b, off); err != nil {
		return fmt.Errorf("storage: write block %d: %w", id, classifyWriteErr(err))
	}
	return nil
}

// WriteBlocks implements BatchWriter: each maximal run of consecutive
// block ids becomes one pwrite of a run-sized buffer. Runs are written in
// slice order, so the physical write sequence is the per-block loop's.
func (s *FileStore) WriteBlocks(ids []int, data [][]float64) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if err := checkBatchArgs(s, ids, data); err != nil {
		return err
	}
	fb := s.frameBytes()
	for r := coalesceRuns(ids, 0); r.start < len(ids); r = coalesceRuns(ids, r.end) {
		bp, pool := s.runBuf(r.end - r.start)
		encodeFrames(*bp, data[r.start:r.end]...)
		s.pwrites.Add(1)
		_, err := s.f.WriteAt((*bp)[:(r.end-r.start)*fb], int64(ids[r.start])*int64(fb))
		pool.Put(bp)
		if err != nil {
			return fmt.Errorf("storage: write blocks %d..%d: %w", ids[r.start], ids[r.end-1], classifyWriteErr(err))
		}
	}
	return nil
}

// Syscalls returns how many positional read and write calls the store has
// issued — the coalescing win ReadBlocks/WriteBlocks buy over per-block
// loops, independent of the block counts a Counting above reports.
func (s *FileStore) Syscalls() (preads, pwrites int64) {
	return s.preads.Load(), s.pwrites.Load()
}

// Sync flushes the file to stable storage.
func (s *FileStore) Sync() error {
	if s.closed.Load() {
		return ErrClosed
	}
	return classifyWriteErr(s.f.Sync())
}

// Truncate discards every block by truncating the file to zero length;
// subsequent reads see zeros. On journaling filesystems this metadata
// operation is atomic, which is why the block journal uses it as its
// "batch retired" marker.
func (s *FileStore) Truncate() error {
	if s.closed.Load() {
		return ErrClosed
	}
	if err := s.f.Truncate(0); err != nil {
		return fmt.Errorf("storage: truncate: %w", err)
	}
	return nil
}

// NumBlocks returns how many block extents the file currently holds
// (partial trailing extents count as one).
func (s *FileStore) NumBlocks() (int, error) {
	if s.closed.Load() {
		return 0, ErrClosed
	}
	fi, err := s.f.Stat()
	if err != nil {
		return 0, err
	}
	bb := int64(s.frameBytes())
	return int((fi.Size() + bb - 1) / bb), nil
}

// Close closes the underlying file.
func (s *FileStore) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	return s.f.Close()
}
