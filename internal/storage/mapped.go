package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
)

// MappedStore is a BlockStore whose reads are served from a shared,
// read-only memory mapping of the backing file instead of pread calls:
// the kernel faults pages in on first touch and every later read is a
// plain memory access, so the per-batch page-cache memcpy that bounds
// FileStore's warm read path disappears. The on-disk layout is exactly
// FileStore's (one 8*blockSize-byte little-endian extent per block id),
// so the two are interchangeable under every wrapper and fsck.
//
// Writes deliberately do NOT go through the mapping: they use the same
// positional pwrite path as FileStore (MAP_SHARED coherence makes them
// visible to the mapping immediately). The mapping is mapped PROT_READ,
// so there are never dirty mapped pages — nothing can leak onto the
// medium outside the pwrite order the layers above enforce, and Sync is
// the file's fsync alone.
//
// File growth is handled by remapping: the mapping always covers at
// most the current file size (mapping beyond EOF would SIGBUS on
// access), and a read that lands past the mapped extent but inside the
// grown file triggers a remap under the writer lock. Old mappings are
// reference-counted: borrowed frame views (ViewFrames) pin them until
// released, so remap-on-grow is safe under concurrent readers.
type MappedStore struct {
	// fs is the pwrite path, and owns the file: open, positional writes and
	// their run coalescing, fsync, ftruncate, size and the closed flag are
	// FileStore's. This type adds only the mapping.
	fs   *FileStore
	mu   sync.RWMutex // guards m and remap/retire/truncate transitions
	m    *mapping     // nil while the file is empty
	size atomic.Int64 // known file size in bytes (monotone except Truncate)

	viewPool    sync.Pool    // *FrameViews recycled across ViewFrames calls
	mappedReads atomic.Int64 // blocks served from the mapping (the syscall-proxy column)
}

// mapping is one generation of the file mapping. The store keeps the
// current generation in MappedStore.m; borrowed FrameViews hold a
// reference. When a remap retires a generation it is munmapped as soon
// as the last reference drains (immediately, when there are none).
type mapping struct {
	data    []byte
	refs    atomic.Int64
	retired atomic.Bool
	unmap   sync.Once
}

func (m *mapping) release() {
	m.unmap.Do(func() { _ = syscall.Munmap(m.data) })
}

// dropRef releases one borrow and unmaps a retired generation when the
// last borrow drains.
func (m *mapping) dropRef() {
	if m.refs.Add(-1) == 0 && m.retired.Load() {
		m.release()
	}
}

// retire takes a generation (nil: none) out of service: it is unmapped now,
// or when its last borrowed view is released.
func (m *mapping) retire() {
	if m == nil {
		return
	}
	m.retired.Store(true)
	if m.refs.Load() == 0 {
		m.release()
	}
}

// mapFile puts a mapping over a freshly opened FileStore, closing it again
// when the mapping cannot be established.
func mapFile(fs *FileStore, err error) (*MappedStore, error) {
	if err != nil {
		return nil, err
	}
	s := &MappedStore{fs: fs}
	if err := s.remap(); err != nil {
		_ = fs.Close() // best-effort cleanup; the mmap error surfaces
		return nil, err
	}
	return s, nil
}

// NewMappedStore creates (truncating) an mmap-backed store at path.
func NewMappedStore(path string, blockSize int) (*MappedStore, error) {
	return mapFile(NewFileStore(path, blockSize))
}

// OpenMappedStore opens an existing mmap-backed store at path. The file
// layout is FileStore's, so either store type can open the other's file.
func OpenMappedStore(path string, blockSize int) (*MappedStore, error) {
	return mapFile(OpenFileStore(path, blockSize))
}

// BlockSize returns the number of coefficients per block.
func (s *MappedStore) BlockSize() int { return s.fs.blockSize }

func (s *MappedStore) frameBytes() int { return s.fs.frameBytes() }

// remap re-stats the file and swaps in a mapping of its current size,
// retiring the previous generation. It is a no-op when the mapped
// extent already matches the file.
func (s *MappedStore) remap() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	fi, err := s.fs.f.Stat()
	if err != nil {
		return fmt.Errorf("storage: stat for remap: %w", err)
	}
	size := fi.Size()
	if s.m != nil && int64(len(s.m.data)) == size {
		s.size.Store(size)
		return nil
	}
	var nm *mapping
	if size > 0 {
		data, err := syscall.Mmap(int(s.fs.f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
		if err != nil {
			return fmt.Errorf("storage: mmap %d bytes: %w", size, err)
		}
		nm = &mapping{data: data}
	}
	s.m.retire()
	s.m = nm
	s.size.Store(size)
	return nil
}

// ensureMapped guarantees the mapping covers min(end, file size) bytes,
// remapping when a write has grown the file past the mapped extent.
func (s *MappedStore) ensureMapped(end int64) error {
	for {
		sz := s.size.Load()
		need := end
		if need > sz {
			need = sz
		}
		s.mu.RLock()
		var have int64
		if s.m != nil {
			have = int64(len(s.m.data))
		}
		if have >= need {
			s.mu.RUnlock()
			return nil
		}
		s.mu.RUnlock()
		if err := s.remap(); err != nil {
			return err
		}
	}
}

// guardFault makes a fault on mapped bytes (a file truncated under the
// mapping, a media error behind a mapped page) a panic of the calling
// goroutine instead of a fatal signal. Every access to mapped bytes runs
// under it, deferred as
//
//	defer debug.SetPanicOnFault(guardFault())
//	defer recoverFault(&err)
//
// so the previous setting comes back once the recovery has run.
func guardFault() bool { return debug.SetPanicOnFault(true) }

// recoverFault turns a recovered memory fault into a device read error in
// *err and re-panics anything else. The error wraps syscall.EIO, so
// Classify puts it where a failed pread lands, and quarantine, the breaker
// and degraded serving handle it the same way.
func recoverFault(err *error) {
	r := recover()
	if r == nil {
		return
	}
	re, ok := r.(runtime.Error)
	fault, hasAddr := r.(interface{ Addr() uintptr })
	if !ok || !hasAddr {
		panic(r)
	}
	*err = fmt.Errorf("storage: fault at %#x reading the mapping (%v): %w", fault.Addr(), re, syscall.EIO)
}

// copyMapped copies mapped bytes src into dst under guardFault.
func copyMapped(dst, src []byte) (err error) {
	defer debug.SetPanicOnFault(guardFault())
	defer recoverFault(&err)
	copy(dst, src)
	return nil
}

// decodeFrame fills buf from the mapped bytes at off, reading zeros for
// any part of the frame beyond the mapped extent (a lazily allocated
// medium, exactly as FileStore reads past EOF). On a little-endian host it
// is one copy of the bytes that exist.
func decodeFrame(data []byte, off int64, buf []float64) {
	if !littleEndian {
		decodeFramePortable(data, off, buf)
		return
	}
	dst := mediaBytes(buf, nil)
	clear(dst[copy(dst, data[off:]):])
}

// decodeFramePortable is decodeFrame one slot at a time, for any host.
func decodeFramePortable(data []byte, off int64, buf []float64) {
	for j := range buf {
		p := off + int64(8*j)
		if p+8 <= int64(len(data)) {
			buf[j] = math.Float64frombits(binary.LittleEndian.Uint64(data[p:]))
			continue
		}
		// Partial trailing extent: assemble the readable bytes, zero the rest.
		var tail [8]byte
		if p < int64(len(data)) {
			copy(tail[:], data[p:])
		}
		buf[j] = math.Float64frombits(binary.LittleEndian.Uint64(tail[:]))
	}
}

// ReadBlock serves block id from the mapping; extents beyond the file
// read as zeros.
func (s *MappedStore) ReadBlock(id int, buf []float64) (err error) {
	if s.fs.closed.Load() {
		return ErrClosed
	}
	if err := checkBlockArgs(s, id, buf); err != nil {
		return err
	}
	fb := int64(s.frameBytes())
	off := int64(id) * fb
	if err := s.ensureMapped(off + fb); err != nil {
		return err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	defer debug.SetPanicOnFault(guardFault())
	defer recoverFault(&err)
	s.mappedReads.Add(1)
	if s.m == nil || off >= int64(len(s.m.data)) {
		ZeroFill(buf)
		return nil
	}
	decodeFrame(s.m.data, off, buf)
	return nil
}

// advise hints the kernel to fault in [off, end) ahead of the decode
// loop, overlapping page faults with the copy out of earlier frames.
// Advice is best-effort; failures are ignored.
func (s *MappedStore) advise(data []byte, off, end int64) {
	if end > int64(len(data)) {
		end = int64(len(data))
	}
	page := int64(os.Getpagesize())
	off -= off % page
	if off >= end {
		return
	}
	_ = syscall.Madvise(data[off:end], syscall.MADV_WILLNEED)
}

// ReadBlocks implements BatchReader. No positional reads are issued:
// each block decodes straight out of the mapping, with one MADV_WILLNEED
// hint over the batch's span so the kernel readahead overlaps the
// decode of earlier frames with the faulting of later ones.
func (s *MappedStore) ReadBlocks(ids []int, bufs [][]float64) (err error) {
	if s.fs.closed.Load() {
		return ErrClosed
	}
	if err := checkBatchArgs(s, ids, bufs); err != nil {
		return err
	}
	if len(ids) == 0 {
		return nil
	}
	fb := int64(s.frameBytes())
	maxEnd := int64(0)
	for _, id := range ids {
		if end := int64(id)*fb + fb; end > maxEnd {
			maxEnd = end
		}
	}
	if err := s.ensureMapped(maxEnd); err != nil {
		return err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	defer debug.SetPanicOnFault(guardFault())
	defer recoverFault(&err)
	s.mappedReads.Add(int64(len(ids)))
	if s.m == nil {
		for i := range bufs {
			ZeroFill(bufs[i])
		}
		return nil
	}
	data := s.m.data
	if len(ids) > 1 {
		minOff := int64(ids[0]) * fb
		for _, id := range ids[1:] {
			if off := int64(id) * fb; off < minOff {
				minOff = off
			}
		}
		s.advise(data, minOff, maxEnd)
	}
	for i, id := range ids {
		off := int64(id) * fb
		if off >= int64(len(data)) {
			ZeroFill(bufs[i])
			continue
		}
		decodeFrame(data, off, bufs[i])
	}
	return nil
}

// growTo records that a write extended the file to end bytes. The
// mapping itself is refreshed lazily by the next read that needs it.
func (s *MappedStore) growTo(end int64) {
	for {
		cur := s.size.Load()
		if end <= cur || s.size.CompareAndSwap(cur, end) {
			return
		}
	}
}

// WriteBlock writes block id through the FileStore's positional write;
// MAP_SHARED coherence makes it visible to the mapping.
func (s *MappedStore) WriteBlock(id int, data []float64) error {
	if err := s.fs.WriteBlock(id, data); err != nil {
		return err
	}
	s.growTo(int64(id+1) * int64(s.frameBytes()))
	return nil
}

// WriteBlocks implements BatchWriter through the FileStore's coalesced
// positional writes. A batch that fails part-way has still put its earlier
// runs on the medium; the size is then taken from the file, so those blocks
// do not read back as zeros.
func (s *MappedStore) WriteBlocks(ids []int, data [][]float64) error {
	if err := s.fs.WriteBlocks(ids, data); err != nil {
		if fi, serr := s.fs.f.Stat(); serr == nil {
			s.growTo(fi.Size())
		}
		return err
	}
	top := -1
	for _, id := range ids {
		top = max(top, id)
	}
	s.growTo(int64(top+1) * int64(s.frameBytes()))
	return nil
}

// ViewFrames implements FrameViewer: it returns borrowed zero-copy
// views of the requested frames, pinned against remap until Release.
func (s *MappedStore) ViewFrames(ids []int) (*FrameViews, error) {
	if s.fs.closed.Load() {
		return nil, ErrClosed
	}
	fb := int64(s.frameBytes())
	maxEnd := int64(0)
	for _, id := range ids {
		if id < 0 {
			return nil, fmt.Errorf("storage: negative block id %d", id)
		}
		if end := int64(id)*fb + fb; end > maxEnd {
			maxEnd = end
		}
	}
	if err := s.ensureMapped(maxEnd); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.mappedReads.Add(int64(len(ids)))
	v, ok := s.viewPool.Get().(*FrameViews)
	if !ok {
		v = &FrameViews{pool: &s.viewPool}
	}
	if cap(v.frames) >= len(ids) {
		v.frames = v.frames[:len(ids)]
	} else {
		v.frames = make([][]byte, len(ids))
	}
	var data []byte // stays empty while the file is: every frame then reads as zeros
	if s.m != nil {
		data = s.m.data
	}
	borrowed := false
	for i, id := range ids {
		off := int64(id) * fb
		switch {
		case off+fb <= int64(len(data)):
			v.frames[i] = data[off : off+fb : off+fb]
			borrowed = true
		case off < int64(len(data)):
			// Partial trailing extent (a torn tail): pad a private copy so
			// the checksum layer still sees the torn bytes, not clean zeros.
			fr := make([]byte, fb)
			if err := copyMapped(fr, data[off:]); err != nil {
				return nil, err
			}
			v.frames[i] = fr
		default:
			// Entirely beyond EOF: nil means an all-zero (unwritten) frame.
		}
	}
	if borrowed {
		s.m.refs.Add(1)
		v.m = s.m
	}
	return v, nil //shiftsplitvet:ignore scratchescape -- v is a borrow, not scratch: the caller's Release is what re-pools it
}

// NumBlocks returns how many block extents the file currently holds
// (partial trailing extents count as one).
func (s *MappedStore) NumBlocks() (int, error) { return s.fs.NumBlocks() }

// Syscalls mirrors FileStore.Syscalls. Mapped reads issue no positional
// reads, so preads stays 0 — the mapped traffic is reported separately
// by MappedReads, keeping the syscall counts honest.
func (s *MappedStore) Syscalls() (preads, pwrites int64) { return s.fs.Syscalls() }

// MappedReads implements MappedReadsReporter: how many block reads were
// served from the mapping instead of positional reads.
func (s *MappedStore) MappedReads() int64 { return s.mappedReads.Load() }

// Sync flushes the file: fsync alone. Every write went through pwrite, and
// the mapping is PROT_READ, so it never holds a dirty page an msync would
// have to flush.
func (s *MappedStore) Sync() error { return s.fs.Sync() }

// Truncate discards every block. Outstanding frame views must be
// released before truncating (the borrow discipline: a view is valid
// only until the next mutation of its blocks).
func (s *MappedStore) Truncate() error {
	if s.fs.closed.Load() {
		return ErrClosed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.fs.Truncate(); err != nil {
		return err
	}
	s.m.retire()
	s.m = nil
	s.size.Store(0)
	return nil
}

// Close closes the file and unmaps (once borrowed views drain). The file
// goes first: a reader that raced past its closed check then fails its
// remap instead of mapping a store nobody will close.
func (s *MappedStore) Close() error {
	err := s.fs.Close()
	s.mu.Lock()
	s.m.retire()
	s.m = nil
	s.mu.Unlock()
	return err
}
