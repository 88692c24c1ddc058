package storage

import (
	"encoding/binary"
	"errors"
	"hash/crc64"
	"math"
	"testing"
)

func newTestJournal(t *testing.T, payload int) (*Journal, *MemStore) {
	t.Helper()
	bs := NewMemStore(payload + JournalOverhead)
	j, err := NewJournal(bs, payload)
	if err != nil {
		t.Fatal(err)
	}
	return j, bs
}

// framesOf frames payloads as the v2 data frames of epoch that LogFrames
// takes.
func framesOf(epoch uint64, blocks [][]float64) [][]float64 {
	out := make([][]float64, len(blocks))
	for i, b := range blocks {
		out[i] = make([]float64, len(b)+ChecksumOverhead)
		fillFrame(out[i], b, epoch, make([]byte, 8*len(out[i])))
	}
	return out
}

// writeDataRecord writes the data record LogFrames would write at position
// at, without sealing the batch.
func writeDataRecord(j *Journal, at int, epoch uint64, id int, data []float64) error {
	f := framesOf(epoch, [][]float64{data})[0]
	return j.writeRecord(at, journalKindData, epoch, id, math.Float64bits(f[len(data)]), data)
}

func TestJournalLogAndRedo(t *testing.T) {
	j, _ := newTestJournal(t, 4)
	ids := []int{2, 7, 1}
	blocks := [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}}
	if err := j.LogFrames(9, ids, framesOf(9, blocks)); err != nil {
		t.Fatal(err)
	}
	batch, err := j.Redo()
	if err != nil {
		t.Fatal(err)
	}
	if !batch.Committed || batch.Epoch != 9 || len(batch.IDs) != 3 {
		t.Fatalf("Redo = %+v", batch)
	}
	for i := range ids {
		if batch.IDs[i] != ids[i] {
			t.Fatalf("id %d = %d, want %d", i, batch.IDs[i], ids[i])
		}
		for k := range blocks[i] {
			if batch.Frames[i][k] != blocks[i][k] {
				t.Fatalf("block %d slot %d = %g", i, k, batch.Frames[i][k])
			}
		}
	}
	if err := j.Reset(); err != nil {
		t.Fatal(err)
	}
	batch, err = j.Redo()
	if err != nil || batch.Committed || batch.Entries != 0 {
		t.Fatalf("after Reset: %+v, %v", batch, err)
	}
}

func TestJournalUnsealedBatchDiscarded(t *testing.T) {
	j, bs := newTestJournal(t, 3)
	// Write two entries by hand, no commit record: a crash before the seal.
	if err := writeDataRecord(j, 0, 4, 10, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := writeDataRecord(j, 1, 4, 11, []float64{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	batch, err := j.Redo()
	if err != nil {
		t.Fatal(err)
	}
	if batch.Committed {
		t.Fatal("unsealed batch reported committed")
	}
	if batch.Entries != 2 {
		t.Fatalf("entries = %d, want 2", batch.Entries)
	}
	_ = bs
}

func TestJournalTornCommitDiscarded(t *testing.T) {
	j, bs := newTestJournal(t, 3)
	if err := writeDataRecord(j, 0, 4, 10, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// A torn commit record: garbage that fails its CRC.
	garbage := make([]float64, bs.BlockSize())
	for i := range garbage {
		garbage[i] = float64(i) + 0.5
	}
	if err := bs.WriteBlock(1, garbage); err != nil {
		t.Fatal(err)
	}
	batch, err := j.Redo()
	if err != nil {
		t.Fatal(err)
	}
	if batch.Committed {
		t.Fatal("torn commit record accepted")
	}
}

func TestJournalCorruptEntryUnderCommitIsFatal(t *testing.T) {
	j, bs := newTestJournal(t, 3)
	if err := j.LogFrames(5, []int{1, 2}, framesOf(5, [][]float64{{1, 1, 1}, {2, 2, 2}})); err != nil {
		t.Fatal(err)
	}
	// Rot the first entry while the commit record stands: unrecoverable.
	garbage := make([]float64, bs.BlockSize())
	garbage[0] = 3.25
	if err := bs.WriteBlock(0, garbage); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Redo(); !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("err = %v, want ErrJournalCorrupt", err)
	}
	st := j.Inspect()
	if st.Err == nil {
		t.Fatal("Inspect did not surface the corruption")
	}
}

func TestJournalEmptyIsClean(t *testing.T) {
	j, _ := newTestJournal(t, 2)
	batch, err := j.Redo()
	if err != nil || batch.Committed || batch.Entries != 0 {
		t.Fatalf("empty journal: %+v, %v", batch, err)
	}
	st := j.Inspect()
	if st.Committed || st.Entries != 0 || st.Err != nil {
		t.Fatalf("Inspect = %+v", st)
	}
}

func TestJournalEmptyBatchSealed(t *testing.T) {
	j, _ := newTestJournal(t, 2)
	if err := j.LogFrames(1, nil, nil); err != nil {
		t.Fatal(err)
	}
	batch, err := j.Redo()
	if err != nil || !batch.Committed || len(batch.IDs) != 0 {
		t.Fatalf("empty sealed batch: %+v, %v", batch, err)
	}
}

// fillRecordV1 writes a v1 journal record, byte for byte what writers
// before format v2 produced.
func fillRecordV1(rec []float64, kind int, epoch uint64, id int, aux uint64, data []float64) {
	p := len(rec) - JournalOverhead
	ZeroFill(rec[:p])
	copy(rec[:p], data)
	rec[p] = math.Float64frombits(uint64(id))
	rec[p+1] = math.Float64frombits(aux)
	rec[p+2] = math.Float64frombits(epoch<<2 | uint64(kind))
	b := make([]byte, 8*(p+3))
	for i, v := range rec[:p+3] {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	rec[p+3] = math.Float64frombits(crc64.Checksum(b, crc64.MakeTable(crc64.ECMA)))
}

// writeV1Batch lays a v1 batch into the journal store, sealed or not.
func writeV1Batch(t *testing.T, wal BlockStore, epoch uint64, ids []int, blocks [][]float64, sealed bool) {
	t.Helper()
	rec := make([]float64, wal.BlockSize())
	for i, id := range ids {
		fillRecordV1(rec, journalKindData, epoch, id, uint64(i), blocks[i])
		if err := wal.WriteBlock(i, rec); err != nil {
			t.Fatal(err)
		}
	}
	if sealed {
		fillRecordV1(rec, journalKindCommit, epoch, 0, uint64(len(ids)), nil)
		if err := wal.WriteBlock(len(ids), rec); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalReplaysV1Batch: a sealed batch a v1 writer left in the
// journal is replayed as v2 frames under its epoch; an unsealed one is
// discarded.
func TestJournalReplaysV1Batch(t *testing.T) {
	const p = 4
	ids := []int{2, 7, 1}
	blocks := [][]float64{seqPayload(p, 1), seqPayload(p, 2), seqPayload(p, 3)}
	for _, sealed := range []bool{true, false} {
		data, wal := NewMemStore(p+ChecksumOverhead), NewMemStore(p+JournalOverhead)
		writeV1Batch(t, wal, 9, ids, blocks, sealed)
		d, err := NewDurable(data, wal)
		if err != nil {
			t.Fatalf("sealed=%v: open: %v", sealed, err)
		}
		if n, ok := d.Recovered(); ok != sealed || (sealed && n != len(ids)) {
			t.Fatalf("sealed=%v: Recovered = %d, %v", sealed, n, ok)
		}
		if wal.Len() != 0 {
			t.Fatalf("sealed=%v: journal not retired: %d records", sealed, wal.Len())
		}
		buf := make([]float64, p)
		for i, id := range ids {
			if err := d.ReadBlock(id, buf); err != nil {
				t.Fatal(err)
			}
			epoch, version, err := d.data.ReadMeta(id)
			switch {
			case !sealed && (version != FrameUnwritten || buf[0] != 0):
				t.Fatalf("unsealed batch reached block %d", id)
			case sealed && (err != nil || version != FrameV2 || epoch != 9 || buf[p-1] != blocks[i][p-1]):
				t.Fatalf("replayed block %d: %v, v%d epoch %d err %v", id, buf, version, epoch, err)
			}
		}
		if sealed && d.Epoch() != 9 {
			t.Fatalf("epoch after replay = %d, want 9", d.Epoch())
		}
	}
}

// TestJournalRecordsCarryFrames: a v2 data record holds the frame's check
// word, and replay hands back the very frames Commit logged.
func TestJournalRecordsCarryFrames(t *testing.T) {
	j, bs := newTestJournal(t, 4)
	ids := []int{5, 6}
	frames := framesOf(3, [][]float64{seqPayload(4, 1), seqPayload(4, 2)})
	if err := j.LogFrames(3, ids, frames); err != nil {
		t.Fatal(err)
	}
	rec := make([]float64, bs.BlockSize())
	for i := range ids {
		if err := bs.ReadBlock(i, rec); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(rec[4]) != math.Float64bits(frames[i][4]) {
			t.Fatalf("record %d check word %#x, frame's %#x", i, math.Float64bits(rec[4]), math.Float64bits(frames[i][4]))
		}
	}
	batch, err := j.Redo()
	if err != nil || !batch.Committed {
		t.Fatalf("Redo = %+v, %v", batch, err)
	}
	for i := range frames {
		for k := range frames[i] {
			if math.Float64bits(batch.Frames[i][k]) != math.Float64bits(frames[i][k]) {
				t.Fatalf("replayed frame %d slot %d differs", i, k)
			}
		}
	}
	if err := j.LogFrames(4, ids, frames); err == nil {
		t.Fatal("LogFrames took frames stamped with another epoch")
	}
}

// TestJournalEverySlotIsChecked flips one bit in each slot of a sealed
// batch's data record: the post-image is covered by the frame check word,
// the footer by the record check word, so every flip makes the batch
// unrecoverable rather than replaying wrong bytes.
func TestJournalEverySlotIsChecked(t *testing.T) {
	const p = 3
	for slot := 0; slot < p+JournalOverhead; slot++ {
		j, bs := newTestJournal(t, p)
		if err := j.LogFrames(5, []int{1, 2}, framesOf(5, [][]float64{{1, 1, 1}, {2, 2, 2}})); err != nil {
			t.Fatal(err)
		}
		rec := make([]float64, bs.BlockSize())
		if err := bs.ReadBlock(1, rec); err != nil {
			t.Fatal(err)
		}
		rec[slot] = math.Float64frombits(math.Float64bits(rec[slot]) ^ 1<<17)
		if err := bs.WriteBlock(1, rec); err != nil {
			t.Fatal(err)
		}
		if _, err := j.Redo(); !errors.Is(err, ErrJournalCorrupt) {
			t.Fatalf("flip in slot %d: Redo = %v, want ErrJournalCorrupt", slot, err)
		}
	}
}
