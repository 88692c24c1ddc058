package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func TestChecksummedRoundTrip(t *testing.T) {
	inner := NewMemStore(8 + ChecksumOverhead)
	c, err := NewChecksummed(inner)
	if err != nil {
		t.Fatal(err)
	}
	if c.BlockSize() != 8 {
		t.Fatalf("logical block size = %d, want 8", c.BlockSize())
	}
	if err := c.SetEpoch(7); err != nil {
		t.Fatal(err)
	}
	data := []float64{1, -2.5, 0, 3e300, math.Inf(1), 5, 6, 7}
	if err := c.WriteBlock(3, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 8)
	if err := c.ReadBlock(3, buf); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if buf[i] != data[i] {
			t.Fatalf("slot %d = %g, want %g", i, buf[i], data[i])
		}
	}
	epoch, version, err := c.ReadMeta(3)
	if err != nil || version != FrameV2 || epoch != 7 {
		t.Fatalf("ReadMeta = (%d, %v, %v), want (7, %d, nil)", epoch, version, err, FrameV2)
	}
}

func TestChecksummedUnwrittenReadsZero(t *testing.T) {
	c, err := NewChecksummed(NewMemStore(4 + ChecksumOverhead))
	if err != nil {
		t.Fatal(err)
	}
	buf := []float64{9, 9, 9, 9}
	if err := c.ReadBlock(12, buf); err != nil {
		t.Fatal(err)
	}
	for i, v := range buf {
		if v != 0 {
			t.Fatalf("slot %d = %g, want 0", i, v)
		}
	}
	if _, version, err := c.ReadMeta(12); version != FrameUnwritten || err != nil {
		t.Fatalf("unwritten block reported version=%d err=%v", version, err)
	}
}

func TestChecksummedDetectsCorruption(t *testing.T) {
	inner := NewMemStore(4 + ChecksumOverhead)
	c, err := NewChecksummed(inner)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteBlock(0, []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	// Flip one payload coefficient behind the wrapper's back.
	raw := make([]float64, inner.BlockSize())
	if err := inner.ReadBlock(0, raw); err != nil {
		t.Fatal(err)
	}
	raw[1] = 2.0000001
	if err := inner.WriteBlock(0, raw); err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 4)
	if err := c.ReadBlock(0, buf); !errors.Is(err, ErrChecksum) {
		t.Fatalf("bit rot not detected: err = %v", err)
	}
	if _, version, err := c.ReadMeta(0); version != FrameV2 || !errors.Is(err, ErrChecksum) {
		t.Fatalf("ReadMeta on corrupt block = (version=%d, %v)", version, err)
	}
}

func TestChecksummedDetectsTornWrite(t *testing.T) {
	// A torn write leaves new payload in a prefix with a zeroed footer.
	inner := NewMemStore(4 + ChecksumOverhead)
	c, err := NewChecksummed(inner)
	if err != nil {
		t.Fatal(err)
	}
	torn := make([]float64, inner.BlockSize())
	torn[0] = 42 // payload made it, footer did not
	if err := inner.WriteBlock(5, torn); err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 4)
	if err := c.ReadBlock(5, buf); !errors.Is(err, ErrChecksum) {
		t.Fatalf("torn write not detected: err = %v", err)
	}
}

func TestChecksummedOnFileStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chk.dat")
	fs, err := NewFileStore(path, 6+ChecksumOverhead)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewChecksummed(fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetEpoch(3); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3, 4, 5, 6}
	if err := c.WriteBlock(2, want); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	fs2, err := OpenFileStore(path, 6+ChecksumOverhead)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewChecksummed(fs2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	got := make([]float64, 6)
	if err := c2.ReadBlock(2, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d = %g, want %g", i, got[i], want[i])
		}
	}
	if epoch, version, err := c2.ReadMeta(2); err != nil || version != FrameV2 || epoch != 3 {
		t.Fatalf("reopened meta = (%d, %d, %v)", epoch, version, err)
	}
	// Interleaved unwritten block still reads as zeros.
	if err := c2.ReadBlock(1, got); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("unwritten slot %d = %g", i, v)
		}
	}
}

// fillFrameV1 writes data into frame as a v1 frame of epoch, byte for byte
// what writers before format v2 produced: the payload and stamp serialized,
// then CRC-64/ECMA over them.
func fillFrameV1(frame, data []float64, epoch uint64) {
	p := len(data)
	stamp := epoch<<1 | 1
	b := make([]byte, 8*(p+1))
	for i, v := range data {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	binary.LittleEndian.PutUint64(b[8*p:], stamp)
	copy(frame, data)
	frame[p] = math.Float64frombits(crc64.Checksum(b, crc64.MakeTable(crc64.ECMA)))
	frame[p+1] = math.Float64frombits(stamp)
}

// frameOf returns data framed in the given version under epoch.
func frameOf(version int, data []float64, epoch uint64) []float64 {
	frame := make([]float64, len(data)+ChecksumOverhead)
	if version == FrameV1 {
		fillFrameV1(frame, data, epoch)
	} else {
		fillFrame(frame, data, epoch, make([]byte, 8*len(frame)))
	}
	return frame
}

func seqPayload(p int, seed float64) []float64 {
	out := make([]float64, p)
	for i := range out {
		out[i] = seed*1000 + float64(i) + 0.25
	}
	return out
}

// TestV1FramesReadOnBothLegs mixes v1 and v2 frames in one file and reads
// them through the copying leg (pread into a slab) and the zero-copy leg
// (mapped frame views): both verify either version, report it, and reject
// a corrupted frame of either.
func TestV1FramesReadOnBothLegs(t *testing.T) {
	const p = 6
	path := filepath.Join(t.TempDir(), "mixed.dat")
	fs, err := NewFileStore(path, p+ChecksumOverhead)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{0, 1, 2, 3, 5}
	for _, id := range ids {
		version := FrameV1 + id%2
		if err := fs.WriteBlock(id, frameOf(version, seqPayload(p, float64(id)), uint64(10+id))); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	read := func(name string, open func() (BlockStore, error)) {
		inner, err := open()
		if err != nil {
			t.Fatal(err)
		}
		defer inner.Close()
		c, err := NewChecksummed(inner)
		if err != nil {
			t.Fatal(err)
		}
		all := []int{0, 1, 2, 3, 4, 5}
		bufs := SliceFrames(make([]float64, len(all)*p), len(all), p)
		if err := c.ReadBlocks(all, bufs); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, id := range all {
			want := make([]float64, p)
			if id != 4 {
				want = seqPayload(p, float64(id))
			}
			for k := range want {
				if bufs[i][k] != want[k] {
					t.Fatalf("%s: block %d slot %d = %g, want %g", name, id, k, bufs[i][k], want[k])
				}
			}
			epoch, version, err := c.ReadMeta(id)
			wantVersion, wantEpoch := FrameV1+id%2, uint64(10+id)
			if id == 4 {
				wantVersion, wantEpoch = FrameUnwritten, 0
			}
			if err != nil || version != wantVersion || epoch != wantEpoch {
				t.Fatalf("%s: ReadMeta(%d) = (%d, %d, %v), want (%d, %d, nil)", name, id, epoch, version, err, wantEpoch, wantVersion)
			}
		}
	}
	openFile := func() (BlockStore, error) { return OpenFileStore(path, p+ChecksumOverhead) }
	openMapped := func() (BlockStore, error) { return OpenMappedStore(path, p+ChecksumOverhead) }
	read("pread", openFile)
	read("mapped", openMapped)

	// Rot one payload byte of the v1 frame at block 2 and one of the v2
	// frame at block 3.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	frame := int64(8 * (p + ChecksumOverhead))
	for _, id := range []int64{2, 3} {
		if _, err := f.WriteAt([]byte{0x5a}, id*frame+9); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, open := range []func() (BlockStore, error){openFile, openMapped} {
		inner, err := open()
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewChecksummed(inner)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []int{2, 3} {
			bufs := [][]float64{make([]float64, p)}
			if err := c.ReadBlocks([]int{id}, bufs); !errors.Is(err, ErrChecksum) {
				t.Errorf("rotted block %d read as %v, want ErrChecksum", id, err)
			}
		}
		corrupt, err := c.VerifyBlocks([]int{0, 1, 2, 3, 4, 5})
		if err != nil || len(corrupt) != 2 || corrupt[0] != 2 || corrupt[1] != 3 {
			t.Errorf("VerifyBlocks = %v, %v; want [2 3]", corrupt, err)
		}
		inner.Close()
	}
}

// flipBits flips the bits of e, bit i of e at bit offset at+i of b (bit k
// of b is bit k%8 of byte k/8: the order the reflected CRCs consume bits).
func flipBits(b []byte, at int, e uint64, n int) {
	for i := 0; i < n; i++ {
		if e>>i&1 == 1 {
			b[(at+i)/8] ^= 1 << ((at + i) % 8)
		}
	}
}

// TestFrameCheckDetectsFlips flips every single bit of a v1 and a v2
// frame, and random bursts of up to 64 bits of 2 KiB v2 frames: each must
// fail verification.
func TestFrameCheckDetectsFlips(t *testing.T) {
	for _, version := range []int{FrameV1, FrameV2} {
		const p = 8
		fb := make([]byte, 8*(p+ChecksumOverhead))
		encodeFrames(fb, frameOf(version, seqPayload(p, 3), 77))
		if _, v, err := verifyFrameBytes(p, 0, fb); err != nil || v != version {
			t.Fatalf("v%d frame does not verify: %d, %v", version, v, err)
		}
		for bit := 0; bit < 8*len(fb); bit++ {
			flipBits(fb, bit, 1, 1)
			if _, _, err := verifyFrameBytes(p, 0, fb); !errors.Is(err, ErrChecksum) {
				t.Fatalf("v%d: flip of bit %d not detected: %v", version, bit, err)
			}
			flipBits(fb, bit, 1, 1)
		}
	}
	const p = 256
	rng := rand.New(rand.NewSource(5))
	fb := make([]byte, 8*(p+ChecksumOverhead))
	for trial := 0; trial < 2000; trial++ {
		payload := make([]float64, p)
		for i := range payload {
			payload[i] = rng.NormFloat64()
		}
		encodeFrames(fb, frameOf(FrameV2, payload, uint64(rng.Int63n(maxEpoch))))
		n := 1 + rng.Intn(64)
		at := rng.Intn(8*len(fb) - n + 1)
		e := rng.Uint64() | 1 | 1<<(n-1)
		flipBits(fb, at, e, n)
		if _, _, err := verifyFrameBytes(p, 0, fb); !errors.Is(err, ErrChecksum) {
			t.Fatalf("burst of %d bits at bit %d (pattern %#x) not detected: %v", n, at, e, err)
		}
	}
}

// deficientWindows returns the first bits of the 64-bit windows of a frame
// of the given version that hold an error the check misses. The syndrome
// (computed check XOR stored check) is linear in the error, so every error
// confined to a window is caught exactly when the window's single-bit
// syndromes are linearly independent. The stamp's bit 0 (parity) and bit
// 63 (version) are left out: flipping the first fails the stamp check
// outright, and flipping the second hands the frame to the other version's
// check, whose 64 bits a corruption matches only by chance.
func deficientWindows(version, p int) []int {
	fb := make([]byte, 8*(p+ChecksumOverhead))
	encodeFrames(fb, frameOf(version, seqPayload(p, 1), 9))
	check := checkV2
	if version == FrameV1 {
		check = checkV1
	}
	cols := make([]uint64, 8*len(fb))
	for bit := range cols {
		flipBits(fb, bit, 1, 1)
		cols[bit] = check(fb[:8*p], fb[8*(p+1):]) ^ binary.LittleEndian.Uint64(fb[8*p:])
		flipBits(fb, bit, 1, 1)
	}
	stampBit := 64 * (p + 1)
	var bad []int
	for start := 0; start+64 <= len(cols); start++ {
		var basis [64]uint64 // basis[k]: a vector whose top set bit is k
		rank, want := 0, 0
		for bit := start; bit < start+64; bit++ {
			if bit == stampBit || bit == stampBit+63 {
				continue
			}
			want++
			for v := cols[bit]; v != 0; {
				k := 63 - bits.LeadingZeros64(v)
				if basis[k] == 0 {
					basis[k] = v
					rank++
					break
				}
				v ^= basis[k]
			}
		}
		if rank != want {
			bad = append(bad, start)
		}
	}
	return bad
}

// TestCheckCatchesEveryErrorWithin64Bits is the burst guarantee as a
// proof rather than a sample. Every error confined to 64 contiguous bits
// of the payload, of the check word, or of the stamp (version bit aside)
// is caught, in both versions. A window that straddles an edge of the
// check word can hold a pattern the check misses — the check is stored
// between the two spans it covers, so frame plus check is not one CRC
// codeword — and v2 has no more such windows than v1.
func TestCheckCatchesEveryErrorWithin64Bits(t *testing.T) {
	const p = 8
	checkStart := 64 * p
	straddling := map[int]int{}
	for _, version := range []int{FrameV1, FrameV2} {
		for _, start := range deficientWindows(version, p) {
			if start <= checkStart-64 || start >= checkStart+64 || start == checkStart {
				t.Errorf("v%d: the window at bit %d, inside one span, holds an undetectable error", version, start)
			}
			straddling[version]++
		}
	}
	t.Logf("straddling windows with an undetectable error, of 126: v1 %d, v2 %d", straddling[FrameV1], straddling[FrameV2])
	if straddling[FrameV2] > straddling[FrameV1] {
		t.Errorf("v2 misses errors in %d straddling windows, v1 in %d", straddling[FrameV2], straddling[FrameV1])
	}
}

// TestV2GeneratorsCoprime checks the premise of checkV2's strength: the
// CRC-32C and CRC-32/IEEE generators share no factor over GF(2), so a
// corruption escapes both only if their product divides it.
func TestV2GeneratorsCoprime(t *testing.T) {
	deg := func(a uint64) int { return 63 - bits.LeadingZeros64(a) }
	a, b := uint64(0x1_1EDC6F41), uint64(0x1_04C11DB7) // Castagnoli, IEEE
	for b != 0 {
		for a != 0 && deg(a) >= deg(b) {
			a ^= b << (deg(a) - deg(b))
		}
		a, b = b, a
	}
	if a != 1 {
		t.Fatalf("gcd of the generators = %#x, want 1", a)
	}
}

// TestSetEpochRejectsOverflow: an epoch the stamps cannot carry is an
// error, at SetEpoch and at the Commit that would reach it, instead of a
// stamp that silently drops the epoch's top bits.
func TestSetEpochRejectsOverflow(t *testing.T) {
	c, err := NewChecksummed(NewMemStore(4 + ChecksumOverhead))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetEpoch(maxEpoch); err != nil {
		t.Fatalf("SetEpoch(2^61-1) = %v", err)
	}
	if err := c.SetEpoch(maxEpoch + 1); err == nil {
		t.Fatal("SetEpoch(2^61) accepted")
	}
	if c.Epoch() != maxEpoch {
		t.Fatalf("a rejected epoch changed the store's to %d", c.Epoch())
	}
	wal := NewMemStore(4 + JournalOverhead)
	d, err := NewDurable(NewMemStore(4+ChecksumOverhead), wal)
	if err != nil {
		t.Fatal(err)
	}
	d.epoch = maxEpoch
	if err := d.WriteBlock(0, []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := d.Commit(); err == nil {
		t.Fatal("a commit past the largest epoch succeeded")
	}
	if d.Pending() != 1 || d.Epoch() != maxEpoch {
		t.Fatalf("after the refused commit: pending %d, epoch %d", d.Pending(), d.Epoch())
	}
	if n := wal.Len(); n != 0 {
		t.Fatalf("the refused commit wrote %d journal records", n)
	}
}

// TestMediaBytesMatchesEncoding: the in-place view a little-endian host
// hashes is exactly the serialization every other host hashes.
func TestMediaBytesMatchesEncoding(t *testing.T) {
	s := []float64{0, -0.0, 1.5, math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8_dead_beef_0001), math.Float64frombits(1 << 63)}
	want := make([]byte, 8*len(s))
	encodeFrames(want, s)
	got := mediaBytes(s, make([]byte, 8*len(s)))
	if string(got) != string(want) {
		t.Fatalf("mediaBytes = %x, want %x", got, want)
	}
}

// BenchmarkFrameVerify verifies one framed 2 KiB block in memory, the check
// every verified read pays: v1 (CRC-64, read-only) against v2.
func BenchmarkFrameVerify(b *testing.B) {
	const p = 256
	for _, version := range []int{FrameV1, FrameV2} {
		b.Run(fmt.Sprintf("v%d", version), func(b *testing.B) {
			frame := frameOf(version, seqPayload(p, 2), 5)
			scratch := make([]byte, 8*len(frame))
			b.SetBytes(8 * p)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := verifyFrame(scratch, p, 0, frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
