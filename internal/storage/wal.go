package storage

import (
	"encoding/binary"
	"fmt"
	"math"
)

// JournalOverhead is the number of trailing slots a journal record spends
// on its footer (frame check word, block id, stamp, record check word). A
// journal over blocks of P slots carries payloads of P-4 coefficients.
const JournalOverhead = 4

// ErrJournalCorrupt marks a journal whose committed batch cannot be
// replayed: the commit record is present but one of its entries fails
// verification. This cannot happen under a single crash (entries are
// fsynced before the commit record is written); it indicates media-level
// corruption and requires manual intervention. It belongs to the
// ErrCorruption class of the storage error taxonomy.
var ErrJournalCorrupt = newClassified("storage: journal corrupt", ErrCorruption)

const (
	journalKindData   = 1 // record carries the post-image of one block
	journalKindCommit = 2 // record seals the batch
)

// Journal is a write-ahead block journal: before a batch of block
// post-images is applied to the main store, the batch is appended here and
// fsynced, then sealed with a commit record and fsynced again. Recovery
// (Redo) replays a sealed batch and discards an unsealed one, which is what
// makes a SHIFT-SPLIT maintenance batch atomic: a crash leaves either the
// pre-batch or the post-batch transform, never a hybrid.
//
// Record layout (v2) within a journal block of P = payload+4 slots:
//
//	[0, P-4)  block post-image (zero for commit records)
//	P-4       the block's data-frame check word (zero for commit records)
//	P-3       target block id (uint64 bits)
//	P-2       stamp = 1<<63 | epoch<<2 | kind
//	P-1       v2 check word over slots P-4 .. P-2
//
// A data record is the block's v2 data frame (see Checksummed) with its
// stamp, which follows from the epoch, left out: Commit checks each block
// once, and replay verifies the post-image against the frame check word,
// rebuilds the stamp and writes the frame unchanged. A data record's index
// in the batch, and a commit record's entry count, is its journal position.
//
// v1 records, told apart by bit 63 of the stamp, are still replayed but
// never written:
//
//	[0, P-4)  block post-image (zero for commit records)
//	P-4       target block id
//	P-3       entry index for data records, entry count for commit
//	P-2       stamp = epoch<<2 | kind
//	P-1       CRC-64/ECMA over all preceding slots' bytes
//
// The journal holds at most one batch; Reset truncates it after the batch
// has been applied and the main store fsynced.
type Journal struct {
	bs      BlockStore
	payload int
	sc      frameScratch // record-sized; the slab holds the last batch's records
	at      []int        // journal positions 0, 1, ... of the largest batch so far
}

// NewJournal binds a journal to its backing store; bs must hold blocks of
// payload+JournalOverhead slots and support Truncate.
func NewJournal(bs BlockStore, payload int) (*Journal, error) {
	if payload <= 0 {
		return nil, fmt.Errorf("storage: journal payload %d", payload)
	}
	if bs.BlockSize() != payload+JournalOverhead {
		return nil, fmt.Errorf("storage: journal store block size %d, want %d", bs.BlockSize(), payload+JournalOverhead)
	}
	return &Journal{bs: bs, payload: payload, sc: newFrameScratch(bs.BlockSize())}, nil
}

// fillRecord assembles one v2 record into rec (a full journal block). check
// is the data frame's check word, data the post-image (nil for a commit
// record).
func (j *Journal) fillRecord(rec []float64, kind int, epoch uint64, id int, check uint64, data []float64) {
	p := j.payload
	ZeroFill(rec[copy(rec[:p], data):p])
	rec[p] = math.Float64frombits(check)
	rec[p+1] = math.Float64frombits(uint64(id))
	rec[p+2] = math.Float64frombits(v2Stamp | epoch<<2 | uint64(kind))
	rec[p+3] = math.Float64frombits(checkV2(mediaBytes(rec[p:p+3], j.sc.bytes), nil))
}

func (j *Journal) writeRecord(at int, kind int, epoch uint64, id int, check uint64, data []float64) error {
	j.fillRecord(j.sc.frame, kind, epoch, id, check, data)
	return j.bs.WriteBlock(at, j.sc.frame)
}

// journalRecord is one decoded journal record.
type journalRecord struct {
	kind  int // journalKindData or journalKindCommit; 0 for a torn record
	epoch uint64
	id    int
	seq   uint64 // entry index of a data record, entry count of a commit record
}

// decodeRecord classifies rec, the record at journal position at. A data
// record's v2 data frame, the bytes replay writes, is built into frame
// (payload+ChecksumOverhead slots); scratch holds 8 bytes per record slot.
// written=false means a virgin (all-zero) slot. A written record that fails
// any check, or names a kind or block id no writer produces, decodes with
// kind 0.
func decodeRecord(rec []float64, at int, frame []float64, scratch []byte) (r journalRecord, written bool) {
	p := len(rec) - JournalOverhead
	rb := mediaBytes(rec, scratch)
	slot := func(i int) uint64 { return binary.LittleEndian.Uint64(rb[8*i:]) }
	stamp, stored := slot(p+2), slot(p+3)
	if stamp == 0 && stored == 0 && allZero(rb) {
		return journalRecord{}, false
	}
	v1 := stamp&v2Stamp == 0
	var id, check uint64
	if v1 {
		if checkV1(rb[:8*(p+3)], nil) != stored {
			return journalRecord{}, true
		}
		r.epoch, r.seq = stamp>>2, slot(p+1)
		id = slot(p)
	} else {
		if checkV2(rb[8*p:8*(p+3)], nil) != stored {
			return journalRecord{}, true
		}
		r.epoch, r.seq = (stamp&^v2Stamp)>>2, uint64(at)
		id, check = slot(p+1), slot(p)
	}
	kind := int(stamp & 3)
	if (kind != journalKindData && kind != journalKindCommit) || id > math.MaxInt {
		return journalRecord{}, true
	}
	r.id = int(id)
	if kind == journalKindData {
		if v1 {
			fillFrame(frame, rec[:p], r.epoch, scratch)
		} else {
			copy(frame, rec[:p])
			frame[p] = math.Float64frombits(check)
			frame[p+1] = math.Float64frombits(frameStamp(r.epoch))
			if _, _, err := verifyFrame(scratch, p, r.id, frame); err != nil {
				return journalRecord{}, true
			}
		}
	}
	r.kind = kind
	return r, true
}

// LogFrames makes a batch durable: each data frame — Checksummed's v2
// frame of the block under epoch — is appended as a record and fsynced,
// then the commit record is written and fsynced. The records carry the
// frames' check words, so logging hashes no payload. Once LogFrames returns
// nil the batch survives any crash.
func (j *Journal) LogFrames(epoch uint64, ids []int, frames [][]float64) error {
	if len(ids) != len(frames) {
		return fmt.Errorf("storage: journal batch has %d ids, %d frames", len(ids), len(frames))
	}
	if epoch > maxEpoch {
		return fmt.Errorf("storage: journal batch: epoch %d exceeds the stamp's maximum %d", epoch, uint64(maxEpoch))
	}
	p := j.payload
	for i, id := range ids {
		if id < 0 {
			return fmt.Errorf("storage: journal batch: negative block id %d", id)
		}
		if f := frames[i]; len(f) != p+ChecksumOverhead || math.Float64bits(f[p+1]) != frameStamp(epoch) {
			return fmt.Errorf("storage: journal batch: block %d is not a %d-slot frame of epoch %d", id, p, epoch)
		}
	}
	// The data records occupy journal positions 0..n-1 — one maximal
	// consecutive run, the ideal case for a vectored write. The record
	// bytes (and the fsync protocol around them) are identical to writing
	// them one at a time.
	recs := j.sc.frames(len(ids), j.bs.BlockSize())
	for len(j.at) < len(ids) {
		j.at = append(j.at, len(j.at))
	}
	for i, id := range ids {
		j.fillRecord(recs[i], journalKindData, epoch, id, math.Float64bits(frames[i][p]), frames[i][:p])
	}
	if err := WriteBlocksOf(j.bs, j.at[:len(ids)], recs); err != nil {
		return err
	}
	if err := SyncIfAble(j.bs); err != nil {
		return err
	}
	if err := j.writeRecord(len(ids), journalKindCommit, epoch, 0, 0, nil); err != nil {
		return err
	}
	return SyncIfAble(j.bs)
}

// RedoBatch is the result of scanning the journal on open.
type RedoBatch struct {
	Epoch     uint64
	IDs       []int
	Frames    [][]float64 // the blocks' v2 data frames, ready to write to the data device
	Committed bool        // a sealed batch is present and must be replayed
	Entries   int         // data records seen (including discarded unsealed ones)
}

// Redo scans the journal. If a sealed batch is present it is returned with
// Committed=true and the caller must replay it; an unsealed batch (crash
// before the commit record was durable) is reported with Committed=false
// and must be discarded — the main store was never touched.
func (j *Journal) Redo() (RedoBatch, error) {
	var out RedoBatch
	torn := false
	for at := 0; ; at++ {
		if err := j.bs.ReadBlock(at, j.sc.frame); err != nil {
			return out, err
		}
		frame := make([]float64, j.payload+ChecksumOverhead)
		r, written := decodeRecord(j.sc.frame, at, frame, j.sc.bytes)
		if !written {
			// Virgin slot before any commit record: the batch was never
			// sealed; discard it.
			out.IDs, out.Frames = nil, nil
			return out, nil
		}
		if r.kind == 0 {
			// Torn record: keep scanning — if a commit record follows, the
			// journal is unrecoverable (entries must be durable before the
			// commit is written); if only virgin slots follow, this is the
			// torn tail of an unsealed batch and is discarded.
			torn = true
			continue
		}
		if r.kind == journalKindCommit {
			if torn || r.seq != uint64(len(out.IDs)) || (len(out.IDs) > 0 && r.epoch != out.Epoch) {
				return out, fmt.Errorf("storage: commit record for epoch %d with %d readable entries (want %d, torn=%v): %w",
					r.epoch, len(out.IDs), r.seq, torn, ErrJournalCorrupt)
			}
			out.Epoch = r.epoch
			out.Committed = true
			return out, nil
		}
		// Data record.
		if len(out.IDs) == 0 {
			out.Epoch = r.epoch
		}
		if torn || r.epoch != out.Epoch || r.seq != uint64(len(out.IDs)) {
			// Out-of-sequence or mixed-epoch data: treat like a torn tail.
			torn = true
			continue
		}
		out.IDs = append(out.IDs, r.id)
		out.Frames = append(out.Frames, frame)
		out.Entries++
	}
}

// Reset retires the current batch by truncating the journal (atomic on the
// backing store) and syncing.
func (j *Journal) Reset() error {
	if err := TruncateIfAble(j.bs); err != nil {
		return err
	}
	return SyncIfAble(j.bs)
}

// JournalState summarizes the journal for fsck without replaying it.
type JournalState struct {
	Entries   int
	Committed bool
	Epoch     uint64
	Err       error // non-nil when the journal is unrecoverable
}

// Inspect scans the journal non-destructively.
func (j *Journal) Inspect() JournalState {
	batch, err := j.Redo()
	return JournalState{Entries: batch.Entries, Committed: batch.Committed, Epoch: batch.Epoch, Err: err}
}

// Close closes the backing store.
func (j *Journal) Close() error { return j.bs.Close() }
