package storage

import (
	"errors"
	"math"
	"testing"
)

// The seed corpora under testdata/fuzz hold, for each target, a v1 and a
// v2 frame or record (data and commit), a never-written one and torn ones,
// so plain `go test` runs every decoder branch.

// fuzzSlots pads or trims raw to a whole block of overhead plus 1 to 64
// payload slots.
func fuzzSlots(raw []byte, overhead int) []float64 {
	n := min(max(len(raw)/8, overhead+1), overhead+64)
	b := make([]byte, 8*n)
	copy(b, raw)
	out := make([]float64, n)
	decodeFrames(b, out)
	return out
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// readLegs classifies frame through both verified read legs: the copying
// leg (the frame read from a store into a slab) and the zero-copy leg (its
// bytes as a mapped view presents them). It fails t unless both classify
// it — clean or ErrChecksum — and agree.
func readLegs(t *testing.T, frame []float64) (epoch uint64, version int, err error) {
	t.Helper()
	p := len(frame) - ChecksumOverhead
	mem := NewMemStore(len(frame))
	if err := mem.WriteBlock(0, frame); err != nil {
		t.Fatal(err)
	}
	c, err := NewChecksummed(mem)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, p)
	copyErr := c.ReadBlocks([]int{0}, [][]float64{buf})
	epoch, version, err = c.ReadMeta(0)
	fb := make([]byte, 8*len(frame))
	encodeFrames(fb, frame)
	vEpoch, vVersion, viewErr := verifyFrameBytes(p, 0, fb)
	for _, e := range []error{copyErr, err, viewErr} {
		if e != nil && !errors.Is(e, ErrChecksum) {
			t.Fatalf("unclassified error %v", e)
		}
	}
	if (copyErr == nil) != (err == nil) || (err == nil) != (viewErr == nil) {
		t.Fatalf("legs disagree: copy %v, meta %v, view %v", copyErr, err, viewErr)
	}
	if err != nil {
		return epoch, version, err
	}
	if vEpoch != epoch || vVersion != version {
		t.Fatalf("legs disagree: copy (%d, v%d), view (%d, v%d)", epoch, version, vEpoch, vVersion)
	}
	want := frame[:p]
	if version == FrameUnwritten {
		want = make([]float64, p)
	}
	if !sameBits(buf, want) {
		t.Fatal("a verified read delivered other bytes than the payload")
	}
	return epoch, version, nil
}

// FuzzFrameVerify feeds arbitrary frames to both read legs, then frames the
// payload in each version, then hits a v2 frame with a burst of up to 64
// bits.
func FuzzFrameVerify(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, epoch uint64, at uint16, n uint8, pattern uint64) {
		frame := fuzzSlots(raw, ChecksumOverhead)
		p := len(frame) - ChecksumOverhead

		// Whatever verifies is exactly what a writer of its version
		// produces from that payload and epoch.
		if e, version, err := readLegs(t, frame); err == nil && version != FrameUnwritten {
			if !sameBits(frameOf(version, frame[:p], e), frame) {
				t.Fatalf("a v%d frame verified that no writer produces", version)
			}
		}

		epoch &= maxEpoch
		for _, version := range []int{FrameV1, FrameV2} {
			e, v, err := readLegs(t, frameOf(version, frame[:p], epoch))
			if err != nil || v != version || e != epoch {
				t.Fatalf("a v%d frame of epoch %d reads as (%d, v%d, %v)", version, epoch, e, v, err)
			}
		}

		// The burst: bit i of the pattern flips bit at+i of the frame, its
		// first and last bits always. Within the payload, the check word or
		// the stamp (version bit aside) it must be caught; one straddling
		// an edge of the check word is missed only by chance
		// (TestCheckCatchesEveryErrorWithin64Bits), so it need only be
		// classified.
		fb := make([]byte, 8*(p+ChecksumOverhead))
		encodeFrames(fb, frameOf(FrameV2, frame[:p], epoch))
		width := 1 + int(n)%64
		start := int(at) % (8*len(fb) - width + 1)
		flipBits(fb, start, pattern|1|1<<(width-1), width)
		hit := make([]float64, len(frame))
		decodeFrames(fb, hit)
		_, _, err := readLegs(t, hit)
		end := start + width
		versionBit := 8*len(fb) - 1
		within := func(lo, hi int) bool { return start >= lo && end <= hi }
		guaranteed := within(0, 64*p) || within(64*p, 64*(p+1)) || (within(64*(p+1), 64*(p+2)) && end <= versionBit)
		if guaranteed && err == nil {
			t.Fatalf("burst of %d bits at bit %d of a %d-slot frame went undetected", width, start, p)
		}
	})
}

// FuzzJournalRecord decodes arbitrary journal records, then round-trips a
// data and a commit record built from the input, then flips one bit of the
// data record.
func FuzzJournalRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, at uint16, epoch uint64, id uint32, flip uint16) {
		rec := fuzzSlots(raw, JournalOverhead)
		p := len(rec) - JournalOverhead
		j, err := NewJournal(NewMemStore(len(rec)), p)
		if err != nil {
			t.Fatal(err)
		}
		decode := func(rec []float64) (journalRecord, bool, []float64) {
			frame := make([]float64, p+ChecksumOverhead)
			r, written := decodeRecord(rec, int(at), frame, make([]byte, 8*len(rec)))
			return r, written, frame
		}

		r, written, frame := decode(rec)
		switch {
		case !written:
			if !sameBits(rec, make([]float64, len(rec))) {
				t.Fatal("a non-zero record decoded as a virgin slot")
			}
		case r.kind == journalKindData:
			e, v, err := readLegs(t, frame)
			if err != nil || v != FrameV2 || e != r.epoch || !sameBits(frame[:p], rec[:p]) || r.id < 0 {
				t.Fatalf("data record replays a bad frame: (%d, v%d, %v), id %d", e, v, err, r.id)
			}
		case r.kind != 0 && r.kind != journalKindCommit:
			t.Fatalf("record decoded as kind %d", r.kind)
		}

		epoch &= maxEpoch
		want := frameOf(FrameV2, rec[:p], epoch)
		data := make([]float64, len(rec))
		j.fillRecord(data, journalKindData, epoch, int(id), math.Float64bits(want[p]), rec[:p])
		r, written, frame = decode(data)
		if !written || r.kind != journalKindData || r.epoch != epoch || r.id != int(id) || r.seq != uint64(at) || !sameBits(frame, want) {
			t.Fatalf("data record round trip: %+v, written %v", r, written)
		}
		commit := make([]float64, len(rec))
		j.fillRecord(commit, journalKindCommit, epoch, 0, 0, nil)
		if r, written, _ := decode(commit); !written || r.kind != journalKindCommit || r.epoch != epoch || r.seq != uint64(at) {
			t.Fatalf("commit record round trip: %+v, written %v", r, written)
		}

		// One flipped bit anywhere in a data record tears it, but for the
		// stamp's version bit, which hands it to the v1 check instead.
		bit := int(flip) % (64 * len(data))
		if bit == 64*(p+2)+63 {
			return
		}
		data[bit/64] = math.Float64frombits(math.Float64bits(data[bit/64]) ^ 1<<(bit%64))
		if r, _, _ := decode(data); r.kind != 0 {
			t.Fatalf("flip of bit %d left a %+v record", bit, r)
		}
	})
}

// Superblock fuzzing geometry: blocks of 8 values and 40 logical blocks
// make three table pages and two-block superblock slots, so a torn slot
// can carry two epochs.
const (
	fuzzSuperBlock   = 8
	fuzzSuperLogical = 40
)

// fuzzSuperImage builds a store whose two slots both verify (epochs 1 and
// 2) and returns it with the blocks the fuzz input covers: both slots,
// then the current table pages.
func fuzzSuperImage(t *testing.T) (keepOpen, []int) {
	base := keepOpen{NewMemStore(fuzzSuperBlock)}
	v, err := NewVersioned(base, fuzzSuperLogical)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		for id := round; id < fuzzSuperLogical; id += 3 {
			if err := v.WriteBlock(id, fillSeq(fuzzSuperBlock, float64(10*id+round))); err != nil {
				t.Fatal(err)
			}
		}
		if err := v.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	region := make([]int, 0, 2*v.hdr+v.pages)
	for id := 0; id < v.dataBase; id++ {
		region = append(region, id)
	}
	for _, p := range v.cur.pagePhys {
		if p >= 0 {
			region = append(region, p)
		}
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	return base, region
}

// FuzzSuperblock XORs hostile bytes over both superblock slots and the
// current table pages of a valid store — with reseal, after recomputing
// each slot's check word, so field values reach the decoder — and requires
// open and the fsck decode never to panic and always to classify the
// input: it opens, serving every block and the next flip, or it fails
// with an error of the corruption class.
func FuzzSuperblock(f *testing.F) {
	f.Add([]byte{}, false)
	f.Fuzz(func(t *testing.T, mask []byte, reseal bool) {
		base, region := fuzzSuperImage(t)
		bs := fuzzSuperBlock
		blocks := make([][]float64, len(region))
		for i, id := range region {
			blocks[i] = make([]float64, bs)
			if err := base.ReadBlock(id, blocks[i]); err != nil {
				t.Fatal(err)
			}
			raw := make([]byte, 8*bs)
			encodeFrames(raw, blocks[i])
			for j := range raw {
				if k := 8*bs*i + j; k < len(mask) {
					raw[j] ^= mask[k]
				}
			}
			decodeFrames(raw, blocks[i])
		}
		hdr := (slotFixed + (fuzzSuperLogical+2*bs-1)/(2*bs) + bs - 2) / (bs - 1)
		if reseal {
			for s := 0; s < 2; s++ {
				slot := make([]float64, 0, hdr*bs)
				for k := 0; k < hdr; k++ {
					slot = append(slot, blocks[s*hdr+k]...)
				}
				n := len(slot)
				last := blocks[s*hdr+hdr-1]
				last[bs-1] = math.Float64frombits(slotCheck(slot[:n-1]))
			}
		}
		for i, id := range region {
			if err := base.WriteBlock(id, blocks[i]); err != nil {
				t.Fatal(err)
			}
		}

		info, ierr := ReadVersionedInfo(base, fuzzSuperLogical)
		v, err := NewVersioned(base, fuzzSuperLogical)
		if (err == nil) != (ierr == nil) {
			t.Fatalf("open %v, fsck decode %v", err, ierr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorruption) {
				t.Fatalf("unclassified open error: %v", err)
			}
			return
		}
		if info.Epoch != v.Epoch() || info.Current != int(v.Epoch()%2) && v.Epoch() != 0 {
			t.Fatalf("fsck decodes epoch %d in slot %d, open %d", info.Epoch, info.Current, v.Epoch())
		}
		for id := 0; id < v.PhysExtent()+2; id++ {
			info.Reachable(id)
		}
		buf := make([]float64, bs)
		for id := 0; id < fuzzSuperLogical; id++ {
			if err := v.ReadBlock(id, buf); err != nil {
				t.Fatalf("read of logical %d from an open store: %v", id, err)
			}
		}
		if err := v.WriteBlock(fuzzSuperLogical-1, fillSeq(bs, 1)); err != nil {
			t.Fatal(err)
		}
		if err := v.Commit(); err != nil {
			t.Fatalf("flip of an open store: %v", err)
		}
		if _, err := NewVersioned(base, fuzzSuperLogical); err != nil {
			t.Fatalf("reopen after a flip: %v", err)
		}
	})
}
