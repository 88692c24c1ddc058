package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// codecPatterns are the bit patterns a float conversion could alter: NaN
// payloads of both signs, a signalling NaN, −0, the smallest and largest
// subnormals and ±Inf.
var codecPatterns = []uint64{
	0x7ff8_dead_beef_0001, // quiet NaN with a payload
	0xfff8_0000_0000_0042, // negative quiet NaN with a payload
	0x7ff0_0000_0000_0001, // signalling NaN
	0xfff4_0000_0000_0000, // negative signalling NaN
	1 << 63,               // −0
	1,                     // smallest subnormal
	0x000f_ffff_ffff_ffff, // largest subnormal
	0x800f_ffff_ffff_ffff, // largest negative subnormal
	0x7ff0_0000_0000_0000, // +Inf
	0xfff0_0000_0000_0000, // −Inf
}

// codecBits returns n slots of random uint64 patterns with every entry of
// codecPatterns planted at random slots.
func codecBits(rng *rand.Rand, n int) []uint64 {
	bits := make([]uint64, n)
	for i := range bits {
		bits[i] = rng.Uint64()
	}
	for _, pat := range codecPatterns {
		bits[rng.Intn(n)] = pat
	}
	return bits
}

// refEncode is the on-media format spelled out: each slot's bit pattern,
// little-endian, one slot after the other.
func refEncode(bits []uint64) []byte {
	b := make([]byte, 8*len(bits))
	for j, v := range bits {
		binary.LittleEndian.PutUint64(b[8*j:], v)
	}
	return b
}

// frameBufs splits bits into frames of p slots each.
func frameBufs(bits []uint64, p int) [][]float64 {
	bufs := make([][]float64, len(bits)/p)
	for i := range bufs {
		bufs[i] = make([]float64, p)
		for j := range bufs[i] {
			bufs[i][j] = math.Float64frombits(bits[i*p+j])
		}
	}
	return bufs
}

// checkBits fails unless the slots of bufs hold exactly want, in order.
func checkBits(t *testing.T, what string, bufs [][]float64, want []uint64) {
	t.Helper()
	k := 0
	for i, buf := range bufs {
		for j, v := range buf {
			if got := math.Float64bits(v); got != want[k] {
				t.Fatalf("%s: frame %d slot %d = %#016x, want %#016x", what, i, j, got, want[k])
			}
			k++
		}
	}
}

// fillGarbage overwrites every slot, so a decode that skips one shows.
func fillGarbage(bufs [][]float64) {
	for _, buf := range bufs {
		for j := range buf {
			buf[j] = math.Float64frombits(0xa5a5_a5a5_a5a5_a5a5)
		}
	}
}

// checkNoAllocs fails if f allocates.
func checkNoAllocs(t *testing.T, what string, f func()) {
	t.Helper()
	if n := testing.AllocsPerRun(10, f); n != 0 {
		t.Errorf("%s: %.1f allocs per call, want 0", what, n)
	}
}

// TestFrameCodecBitExact: both frame codecs — the one-copy path of a
// little-endian host and the per-slot portable path — produce exactly the
// on-media bytes of a per-slot little-endian reference and read them back
// bit for bit, NaN payloads, signalling NaNs, −0, subnormals and ±Inf
// included, over runs of 1, 2 and maxRunBlocks frames; a mapped frame cut
// by the end of the mapping reads its missing bytes as zeros. No call
// allocates.
func TestFrameCodecBitExact(t *testing.T) {
	const p = 256
	rng := rand.New(rand.NewSource(43))
	codecs := []struct {
		name   string
		encode func([]byte, ...[]float64)
		decode func([]byte, ...[]float64)
		frame  func([]byte, int64, []float64)
	}{
		{"fast", encodeFrames, decodeFrames, decodeFrame},
		{"portable", encodeFramesPortable, decodeFramesPortable, decodeFramePortable},
	}
	for _, c := range codecs {
		for _, n := range []int{1, 2, maxRunBlocks} {
			t.Run(fmt.Sprintf("%s/%d", c.name, n), func(t *testing.T) {
				bits := codecBits(rng, n*p)
				want := refEncode(bits)
				bufs := frameBufs(bits, p)

				b := make([]byte, len(want))
				for i := range b {
					b[i] = 0x5a
				}
				c.encode(b, bufs...)
				if string(b) != string(want) {
					t.Fatal("encoded bytes differ from the reference")
				}
				checkNoAllocs(t, "encode", func() { c.encode(b, bufs...) })

				fillGarbage(bufs)
				c.decode(want, bufs...)
				checkBits(t, "decode", bufs, bits)
				checkNoAllocs(t, "decode", func() { c.decode(want, bufs...) })

				last := int64(8 * p * (n - 1))
				fillGarbage(bufs[:1])
				c.frame(want, last, bufs[0])
				checkBits(t, "mapped frame", bufs[:1], bits[(n-1)*p:])
				checkNoAllocs(t, "mapped frame", func() { c.frame(want, last, bufs[0]) })

				// The mapping ends 13 bytes into a slot: that slot keeps
				// its low bytes, it and every later slot are zero above.
				torn := want[:last+8*(p/2)+13]
				tail := make([]byte, 8*p)
				copy(tail, torn[last:])
				fillGarbage(bufs[:1])
				c.frame(torn, last, bufs[0])
				tornBits := make([]uint64, p)
				for j := range tornBits {
					tornBits[j] = binary.LittleEndian.Uint64(tail[8*j:])
				}
				checkBits(t, "torn frame", bufs[:1], tornBits)
				checkNoAllocs(t, "torn frame", func() { c.frame(torn, last, bufs[0]) })
			})
		}
	}

	// mediaBytes is the view the fast codec copies through and the checks
	// hash: it must be the reference bytes too.
	bits := codecBits(rng, p)
	s := frameBufs(bits, p)[0]
	if got := mediaBytes(s, make([]byte, 8*p)); string(got) != string(refEncode(bits)) {
		t.Fatal("mediaBytes differs from the reference encoding")
	}
}

// BenchmarkFrameCodec is the conversion every device read and write pays
// between frame bytes and coefficients: one 2 KiB frame, and a run of
// maxRunBlocks frames as one coalesced pread or pwrite carries.
func BenchmarkFrameCodec(b *testing.B) {
	const p = 256
	for _, dir := range []string{"decode", "encode"} {
		for _, n := range []int{1, maxRunBlocks} {
			b.Run(fmt.Sprintf("%s/%d", dir, n), func(b *testing.B) {
				bits := codecBits(rand.New(rand.NewSource(1)), n*p)
				frames, bufs := refEncode(bits), frameBufs(bits, p)
				b.SetBytes(int64(len(frames)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if dir == "decode" {
						decodeFrames(frames, bufs...)
					} else {
						encodeFrames(frames, bufs...)
					}
				}
			})
		}
	}
}
