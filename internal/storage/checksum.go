package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/crc64"
	"math"
	"unsafe"
)

// ChecksumOverhead is the number of trailing coefficient slots a Checksummed
// wrapper claims from its inner store for the frame footer (check word +
// stamp). A Checksummed over an inner store of P slots exposes P-2 logical
// slots per block.
const ChecksumOverhead = 2

// Frame format versions, as ReadMeta and Fsck report them.
const (
	FrameUnwritten = 0 // an all-zero frame: the block was never written
	FrameV1        = 1 // CRC-64/ECMA check word: verified on read, never written
	FrameV2        = 2 // CRC-32C + CRC-32/IEEE check word: what writers emit
)

// v2Stamp is bit 63 of a stamp, frame or journal record: set, the frame or
// record is format v2. A v1 stamp (epoch<<1|1, epoch<<2|kind) has it clear
// for every epoch below 2^61, so a reader branches on it per frame and a
// store may hold both versions.
const v2Stamp = 1 << 63

// maxEpoch is the largest epoch a stamp can carry: the journal stamp is
// 1<<63 | epoch<<2 | kind.
const maxEpoch = 1<<61 - 1

// ErrChecksum marks a block whose frame failed verification: a torn write,
// bit rot, or a write that never completed. Readers must treat the block
// contents as unusable. It belongs to the ErrCorruption class of the
// storage error taxonomy: errors.Is(err, ErrCorruption) also holds.
var ErrChecksum = newClassified("storage: block checksum mismatch", ErrCorruption)

var (
	crc64Table = crc64.MakeTable(crc64.ECMA)
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// checkV1 is the v1 check word over a then b: CRC-64/ECMA, table-driven.
func checkV1(a, b []byte) uint64 {
	return crc64.Update(crc64.Update(0, crc64Table, a), crc64Table, b)
}

// checkV2 is the v2 check word over a then b: CRC-32C in the low half,
// CRC-32/IEEE in the high half, both on the CPU's CRC instructions. The two
// degree-32 generators are coprime, so the pair misses exactly the errors
// their degree-64 product divides: it is a 64-bit CRC, as strong as v1's.
// In a frame it catches every error within 64 contiguous bits of the
// payload, of the stamp or of the check word, and misses 2^-64 of random
// corruptions (TestCheckCatchesEveryErrorWithin64Bits).
func checkV2(a, b []byte) uint64 {
	c := crc32.Update(crc32.Update(0, castagnoli, a), castagnoli, b)
	i := crc32.Update(crc32.Update(0, crc32.IEEETable, a), crc32.IEEETable, b)
	return uint64(i)<<32 | uint64(c)
}

// littleEndian reports whether a []float64's memory already holds its
// on-media (little-endian) bytes.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// mediaBytes returns the on-media bytes of s: s's own memory on a
// little-endian host, so a check hashes the slots in place and the frame
// codec (decodeFrames, encodeFrames) copies through it; elsewhere s
// serialized into scratch, which must hold 8*len(s) bytes.
func mediaBytes(s []float64, scratch []byte) []byte {
	if littleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), 8*len(s))
	}
	encodeFramesPortable(scratch, s)
	return scratch[:8*len(s)]
}

// frameStamp is the v2 frame stamp of epoch: always odd, so a written frame
// is never all-zero.
func frameStamp(epoch uint64) uint64 { return v2Stamp | epoch<<1 | 1 }

// Checksummed frames every block of an inner store with a check word and an
// epoch stamp so that torn writes and bit rot are detected on read instead
// of being silently folded into the transform. Unwritten blocks (all-zero
// frames) still read as zeros, preserving the lazily allocated medium the
// engines assume.
//
// Frame layout (v2) within an inner block of P = BlockSize()+2 slots:
//
//	[0, P-2)  payload coefficients
//	P-2       check word over payload bytes + stamp bytes: CRC-32C in the
//	          low half, CRC-32/IEEE in the high half (see checkV2)
//	P-1       stamp = 1<<63 | epoch<<1 | 1
//
// A v1 frame is the same with a CRC-64/ECMA check word and stamp
// epoch<<1 | 1. Readers verify either, by the stamp's bit 63; writers emit
// only v2, so maintenance turns a v1 frame into v2 when it rewrites it. A
// pre-v2 reader rejects v2 frames as ErrChecksum: there is no downgrade.
//
// Meta slots hold raw uint64 bit patterns reinterpreted as float64; they
// are round-tripped with math.Float64bits and never used arithmetically.
//
// Reads are the ChecksumReader's, run over the Checksummed's own scratch:
// the type is documented single-threaded (wrap in Locked for concurrency),
// so one scratch serves the read and the write path and steady-state
// batches allocate nothing.
type Checksummed struct {
	inner  BlockStore
	epoch  uint64
	sc     frameScratch
	reader ChecksumReader
}

// NewChecksummed wraps inner, spending its last two slots on the frame
// footer.
func NewChecksummed(inner BlockStore) (*Checksummed, error) {
	n := inner.BlockSize()
	if n <= ChecksumOverhead {
		return nil, fmt.Errorf("storage: checksummed store needs inner block size > %d, got %d", ChecksumOverhead, n)
	}
	c := &Checksummed{inner: inner, sc: newFrameScratch(n)}
	c.reader = ChecksumReader{inner: inner, own: &c.sc}
	return c, nil
}

// BlockSize returns the logical (payload) block size.
func (c *Checksummed) BlockSize() int { return c.inner.BlockSize() - ChecksumOverhead }

// SetEpoch sets the epoch stamped into subsequently written frames. The
// Durable layer sets it once per committed batch, which lets fsck report
// which batch last touched each block. An epoch the stamp cannot carry
// (2^61 or more) is an error.
func (c *Checksummed) SetEpoch(e uint64) error {
	if e > maxEpoch {
		return fmt.Errorf("storage: epoch %d exceeds the stamp's maximum %d", e, uint64(maxEpoch))
	}
	c.epoch = e
	return nil
}

// Epoch returns the current write epoch.
func (c *Checksummed) Epoch() uint64 { return c.epoch }

// fillFrame frames data into frame, a full inner block, as a v2 frame of
// epoch: one check pass over the payload's bytes, then the stamp's.
func fillFrame(frame, data []float64, epoch uint64, scratch []byte) {
	p := len(data)
	copy(frame, data)
	frame[p+1] = math.Float64frombits(frameStamp(epoch))
	fb := mediaBytes(frame, scratch)
	frame[p] = math.Float64frombits(checkV2(fb[:8*p], fb[8*(p+1):]))
}

// frameBatch frames data under the current epoch into the scratch slab. The
// frames stay valid until the next write through c.
func (c *Checksummed) frameBatch(data [][]float64) [][]float64 {
	frames := c.sc.frames(len(data), c.inner.BlockSize())
	for i := range data {
		fillFrame(frames[i], data[i], c.epoch, c.sc.bytes)
	}
	return frames
}

// WriteBlock frames data under the current epoch and writes it.
func (c *Checksummed) WriteBlock(id int, data []float64) error {
	if err := checkBlockArgs(c, id, data); err != nil {
		return err
	}
	fillFrame(c.sc.frame, data, c.epoch, c.sc.bytes)
	return c.inner.WriteBlock(id, c.sc.frame)
}

// WriteBlocks implements BatchWriter: the batch is framed into one slab and
// handed to the inner store as one vectored write. The on-media bytes are
// identical to the per-block path's.
func (c *Checksummed) WriteBlocks(ids []int, data [][]float64) error {
	if err := checkBatchArgs(c, ids, data); err != nil {
		return err
	}
	return WriteBlocksOf(c.inner, ids, c.frameBatch(data))
}

// verifyFrame is verifyFrameBytes over a frame read into memory; scratch
// (8 bytes per slot) is used only on big-endian hosts.
func verifyFrame(scratch []byte, p int, id int, frame []float64) (epoch uint64, version int, err error) {
	return verifyFrameBytes(p, id, mediaBytes(frame, scratch))
}

// verifyFrameBytes classifies a frame of payload size p from its on-media
// bytes: the format version it verifies under (FrameUnwritten for a
// never-written block, which reads as zeros) and the epoch it was written
// in. The check covers payload bytes then stamp bytes, streamed around the
// check word stored between them. A failure wraps ErrChecksum.
func verifyFrameBytes(p int, id int, fb []byte) (epoch uint64, version int, err error) {
	stored := binary.LittleEndian.Uint64(fb[8*p:])
	stamp := binary.LittleEndian.Uint64(fb[8*(p+1):])
	if stamp == 0 && stored == 0 {
		if allZero(fb[:8*p]) {
			return 0, FrameUnwritten, nil
		}
		return 0, FrameUnwritten, fmt.Errorf("storage: block %d: unstamped payload (torn write): %w", id, ErrChecksum)
	}
	if stamp&1 != 1 {
		return 0, FrameUnwritten, fmt.Errorf("storage: block %d: invalid stamp %#x: %w", id, stamp, ErrChecksum)
	}
	payload, sb := fb[:8*p], fb[8*(p+1):8*(p+2)]
	version, check := FrameV2, checkV2
	if stamp&v2Stamp == 0 {
		version, check = FrameV1, checkV1
	}
	if sum := check(payload, sb); sum != stored {
		return 0, version, fmt.Errorf("storage: block %d: v%d check %#x, stored %#x: %w", id, version, sum, stored, ErrChecksum)
	}
	return (stamp &^ v2Stamp) >> 1, version, nil
}

// allZero reports whether every byte of b is zero.
func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// ReadBlock reads and verifies block id. Unwritten blocks yield zeros;
// corrupt frames yield an error wrapping ErrChecksum.
func (c *Checksummed) ReadBlock(id int, buf []float64) error { return c.reader.ReadBlock(id, buf) }

// ReadBlocks implements BatchReader: one vectored inner read into the batch
// slab, then a single verification pass — or, directly over a FrameViewer,
// verification of the mapped frame bytes in place (see
// ChecksumReader.ReadBlocks). The first corrupt frame (in id order)
// surfaces as the error, as in the per-block loop; unlike the loop, the
// inner store has already transferred the whole batch by then. Wrappers
// that intercept reads deliberately don't forward FrameViewer, so
// fault-injected stacks keep the copying path.
func (c *Checksummed) ReadBlocks(ids []int, bufs [][]float64) error {
	return c.reader.ReadBlocks(ids, bufs)
}

// ReadMeta verifies block id without copying its payload, reporting the
// epoch it was written in and its format version (FrameUnwritten if it was
// never written). It is the primitive fsck scans with.
func (c *Checksummed) ReadMeta(id int) (epoch uint64, version int, err error) {
	if id < 0 {
		return 0, FrameUnwritten, fmt.Errorf("storage: negative block id %d", id)
	}
	if err := c.inner.ReadBlock(id, c.sc.frame); err != nil {
		return 0, FrameUnwritten, err
	}
	return verifyFrame(c.sc.bytes, c.BlockSize(), id, c.sc.frame)
}

// Close closes the inner store.
func (c *Checksummed) Close() error { return c.inner.Close() }
