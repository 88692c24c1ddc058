package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
)

// ChecksumOverhead is the number of trailing coefficient slots a Checksummed
// wrapper claims from its inner store for the frame footer (CRC64 + epoch
// stamp). A Checksummed over an inner store of P slots exposes P-2 logical
// slots per block.
const ChecksumOverhead = 2

// ErrChecksum marks a block whose frame failed verification: a torn write,
// bit rot, or a write that never completed. Readers must treat the block
// contents as unusable. It belongs to the ErrCorruption class of the
// storage error taxonomy: errors.Is(err, ErrCorruption) also holds.
var ErrChecksum = newClassified("storage: block checksum mismatch", ErrCorruption)

var crcTable = crc64.MakeTable(crc64.ECMA)

// Checksummed frames every block of an inner store with a CRC64 and an
// epoch stamp so that torn writes and bit rot are detected on read instead
// of being silently folded into the transform. Unwritten blocks (all-zero
// frames) still read as zeros, preserving the lazily allocated medium the
// engines assume.
//
// Frame layout within an inner block of P = BlockSize()+2 slots:
//
//	[0, P-2)  payload coefficients
//	P-2       CRC64/ECMA over payload bytes + stamp bytes
//	P-1       stamp = epoch<<1 | 1 (always odd, so a written frame is
//	          never all-zero)
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
// Durable layer bumps it once per committed batch, which lets fsck report
// which batch last touched each block.
func (c *Checksummed) SetEpoch(e uint64) { c.epoch = e }

// Epoch returns the current write epoch.
func (c *Checksummed) Epoch() uint64 { return c.epoch }

// frameChecksum computes the frame CRC over payload bytes + stamp bytes,
// serializing through scratch (which must hold 8*(len(payload)+1) bytes).
func frameChecksum(scratch []byte, payload []float64, stamp uint64) uint64 {
	for i, v := range payload {
		binary.LittleEndian.PutUint64(scratch[8*i:], math.Float64bits(v))
	}
	binary.LittleEndian.PutUint64(scratch[8*len(payload):], stamp)
	return crc64.Checksum(scratch[:8*(len(payload)+1)], crcTable)
}

// fillFrame frames data (payload, CRC, stamp) into frame under the current
// epoch. frame must span a full inner block.
func (c *Checksummed) fillFrame(frame, data []float64) {
	p := c.BlockSize()
	copy(frame[:p], data)
	stamp := c.epoch<<1 | 1
	frame[p] = math.Float64frombits(frameChecksum(c.sc.bytes, data, stamp))
	frame[p+1] = math.Float64frombits(stamp)
}

// WriteBlock frames data with a CRC and the current epoch and writes it.
func (c *Checksummed) WriteBlock(id int, data []float64) error {
	if err := checkBlockArgs(c, id, data); err != nil {
		return err
	}
	c.fillFrame(c.sc.frame, data)
	return c.inner.WriteBlock(id, c.sc.frame)
}

// WriteBlocks implements BatchWriter: the batch is framed into one slab —
// stamping every frame in a single pass — and handed to the inner store as
// one vectored write. The on-media bytes are identical to the per-block
// path's.
func (c *Checksummed) WriteBlocks(ids []int, data [][]float64) error {
	if err := checkBatchArgs(c, ids, data); err != nil {
		return err
	}
	frames := c.sc.frames(len(ids), c.inner.BlockSize())
	for i := range ids {
		c.fillFrame(frames[i], data[i])
	}
	return WriteBlocksOf(c.inner, ids, frames)
}

// verifyFrame classifies a frame of payload size p read from the inner
// store, serializing the CRC input through scratch. written reports whether
// the frame holds a stored block; a nil error with written=false means the
// block was never written (reads as zeros).
func verifyFrame(scratch []byte, p int, id int, frame []float64) (epoch uint64, written bool, err error) {
	stamp := math.Float64bits(frame[p+1])
	crcStored := math.Float64bits(frame[p])
	if stamp == 0 && crcStored == 0 {
		allZero := true
		for _, v := range frame[:p] {
			if math.Float64bits(v) != 0 {
				allZero = false
				break
			}
		}
		if allZero {
			return 0, false, nil
		}
		return 0, true, fmt.Errorf("storage: block %d: unstamped payload (torn write): %w", id, ErrChecksum)
	}
	if stamp&1 != 1 {
		return 0, true, fmt.Errorf("storage: block %d: invalid stamp %#x: %w", id, stamp, ErrChecksum)
	}
	if crc := frameChecksum(scratch, frame[:p], stamp); crc != crcStored {
		return 0, true, fmt.Errorf("storage: block %d: crc %#x, stored %#x: %w", id, crc, crcStored, ErrChecksum)
	}
	return stamp >> 1, true, nil
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

// verifyFrameBytes is verifyFrame over a raw little-endian frame view. The
// CRC input is payload bytes followed by stamp bytes — the frame stores the
// CRC between them, so the check streams the two spans with crc64.Update
// instead of reassembling a contiguous buffer, and needs no scratch.
func verifyFrameBytes(p int, id int, fb []byte) (written bool, err error) {
	stamp := binary.LittleEndian.Uint64(fb[8*(p+1):])
	crcStored := binary.LittleEndian.Uint64(fb[8*p:])
	if stamp == 0 && crcStored == 0 {
		allZero := true
		for _, b := range fb[:8*p] {
			if b != 0 {
				allZero = false
				break
			}
		}
		if allZero {
			return false, nil
		}
		return true, fmt.Errorf("storage: block %d: unstamped payload (torn write): %w", id, ErrChecksum)
	}
	if stamp&1 != 1 {
		return true, fmt.Errorf("storage: block %d: invalid stamp %#x: %w", id, stamp, ErrChecksum)
	}
	crc := crc64.Update(crc64.Update(0, crcTable, fb[:8*p]), crcTable, fb[8*(p+1):8*(p+2)])
	if crc != crcStored {
		return true, fmt.Errorf("storage: block %d: crc %#x, stored %#x: %w", id, crc, crcStored, ErrChecksum)
	}
	return true, nil
}

// ReadMeta verifies block id without copying its payload, reporting the
// epoch it was written under and whether it was ever written. It is the
// primitive fsck scans with.
func (c *Checksummed) ReadMeta(id int) (epoch uint64, written bool, err error) {
	if id < 0 {
		return 0, false, fmt.Errorf("storage: negative block id %d", id)
	}
	if err := c.inner.ReadBlock(id, c.sc.frame); err != nil {
		return 0, false, err
	}
	return verifyFrame(c.sc.bytes, c.BlockSize(), id, c.sc.frame)
}

// Sync flushes the inner store.
func (c *Checksummed) Sync() error { return SyncIfAble(c.inner) }

// MappedReads forwards the inner stack's mapped-read counter.
func (c *Checksummed) MappedReads() int64 { return MappedReadsOf(c.inner) }

// Truncate forwards to the inner store.
func (c *Checksummed) Truncate() error { return TruncateIfAble(c.inner) }

// Close closes the inner store.
func (c *Checksummed) Close() error { return c.inner.Close() }
