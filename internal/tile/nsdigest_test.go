package tile

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"
)

// nonStdMergeDigests pins, per geometry and tiling, a hash of every
// bucket (block, touches, and each slot's delta bits) a fixed script of
// non-standard merges produces: an accumulation that reorders a single
// addition, or counts one touch more or less, moves it.
var nonStdMergeDigests = map[string]string{
	"n7/d1/b3/*tile.NonStandard": "03e64ac69b333fdfa229b1a9",
	"n7/d1/b3/*tile.Sequential":  "b00feb853b85a632291744fb",
	"n5/d2/b2/*tile.NonStandard": "51096d57a42462c1ca5d3ae3",
	"n5/d2/b2/*tile.Sequential":  "6fe63691b6024ba9e3ac661d",
	"n4/d2/b2/*tile.NonStandard": "eb5a7c5fb67da70e34701dea",
	"n4/d2/b2/*tile.Sequential":  "27263e5d695af53756b3b2c0",
	"n2/d2/b3/*tile.NonStandard": "d295a5a060c5148de54a971f",
	"n2/d2/b3/*tile.Sequential":  "67c0383444773fd4b5efce2c",
	"n3/d3/b2/*tile.NonStandard": "988d6ef317fab798af061504",
	"n3/d3/b2/*tile.Sequential":  "8ed57421c973fed9d21bf76d",
	"n4/d3/b1/*tile.NonStandard": "469037f331000c86a0502272",
	"n4/d3/b1/*tile.Sequential":  "02bc5ab4cc0467755df79265",
}

// hashBuckets writes every bucket of the set into h.
func hashBuckets(h hash.Hash, bs *BucketSet) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(bs.Len()))
	for _, b := range bs.Buckets() {
		put(uint64(b.Block))
		put(uint64(b.Touches))
		for _, v := range b.Deltas {
			put(math.Float64bits(v))
		}
	}
}

// TestNonStdMergeDigestPinned runs the script on the non-standard tiling
// and on its Sequential twin of the same block size: per chunk the SHIFT
// and SPLIT kernels and the slot step into a fresh set, then the whole
// script bucketed into one set with one slot step.
func TestNonStdMergeDigestPinned(t *testing.T) {
	for i, g := range []struct{ n, d, b int }{
		{7, 1, 3}, {5, 2, 2}, {4, 2, 2}, {2, 2, 3}, {3, 3, 2}, {4, 3, 1},
	} {
		nst := NewNonStandard(g.n, g.d, g.b)
		shape := nst.Domain()
		type chunk struct {
			m   int
			pos []int
		}
		rng := rand.New(rand.NewSource(int64(70 + i)))
		var script []chunk
		for _, m := range []int{0, g.n, rng.Intn(g.n + 1), rng.Intn(g.n + 1), rng.Intn(g.n + 1), 1 + rng.Intn(g.n)} {
			pos := make([]int, g.d)
			for t := range pos {
				pos[t] = rng.Intn(1 << uint(g.n-m))
			}
			script = append(script, chunk{m, pos})
		}
		for _, tiling := range []Tiling{nst, NewSequential(shape, nst.BlockSize())} {
			name := fmt.Sprintf("n%d/d%d/b%d/%T", g.n, g.d, g.b, tiling)
			h := sha256.New()
			bs := NewBucketSet(tiling.BlockSize())
			merge := func(c chunk, k int) {
				hat := randHat(cubeShape(c.m, g.d), int64(100*i+k))
				AccumulateShiftNonStandard(tiling, shape, c.m, c.pos, hat, bs)
				AccumulateSplitNonStandard(tiling, shape, c.m, c.pos, hat.Data()[0], bs)
			}
			for k, c := range script {
				bs.Reset()
				merge(c, k)
				AccumulateScalingSlots(tiling, bs)
				hashBuckets(h, bs)
			}
			bs.Reset()
			for k, c := range script {
				merge(c, k)
			}
			AccumulateScalingSlots(tiling, bs)
			hashBuckets(h, bs)
			if got, want := fmt.Sprintf("%x", h.Sum(nil)[:12]), nonStdMergeDigests[name]; got != want {
				t.Errorf("%s: merge digest %s, pinned %s", name, got, want)
			}
		}
	}
}

// cubeShape returns d extents of 2^m.
func cubeShape(m, d int) []int {
	shape := make([]int, d)
	for t := range shape {
		shape[t] = 1 << uint(m)
	}
	return shape
}
