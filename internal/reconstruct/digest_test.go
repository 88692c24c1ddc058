package reconstruct

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/bitutil"
	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/dyadic"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/tile"
	"github.com/shiftsplit/shiftsplit/internal/wavelet"
)

// extractionDigests pins, per geometry and tiling, a hash of every value
// and block count a fixed script of Box, Band and DyadicStandard calls
// (BoxNonStandard and DyadicNonStandard on a non-standard tiling) returns on dense float data, bit for bit: an extraction that reorders a
// single addition moves it.
var extractionDigests = map[string]string{
	"[128]/b3/*tile.Standard":       "b2b7f338448cf26e22d0555b",
	"[128]/b3/*tile.Sequential":     "0b02ca3407e75c1004be4ba5",
	"[64 16]/b2/*tile.Standard":     "5bcc0eda66f099cfef5672ce",
	"[64 16]/b2/*tile.Sequential":   "8b99a1dc5edc95f478470dd4",
	"[16 8 32]/b2/*tile.Standard":   "2c803b4601efe58eee3b22a4",
	"[16 8 32]/b2/*tile.Sequential": "b016aea8238c88f9b736cf59",
	"[1 8]/b2/*tile.Standard":       "fd2b8504827ab2a69a9ad246",
	"[1 8]/b2/*tile.Sequential":     "93f63e1f7937a4e99ba50afe",
	"[32 128]/b3/*tile.Standard":    "b9639f65563683f92753fcb9",
	"[32 128]/b3/*tile.Sequential":  "699d41710984904bf9ffeace",
	"[128]/b3/*tile.NonStandard":    "637a0e651d835e32d4a31f8f",
	"[32 32]/b2/*tile.NonStandard":  "0b83bac7d355789823c016fb",
	"[16 16]/b2/*tile.NonStandard":  "81178df2eb0a204eca7a16bb",
	"[4 4]/b3/*tile.NonStandard":    "b6822e05a4ff1f4f967580b8",
	"[8 8 8]/b2/*tile.NonStandard":  "06f18888a62e7b355373330c",
	"[4 4 4]/b3/*tile.NonStandard":  "83e3275926840bbe6f100eea",
}

// TestExtractionDigestPinned runs the script on the standard tiling and
// on its Sequential twin of the same block size.
func TestExtractionDigestPinned(t *testing.T) {
	for i, g := range []struct {
		shape []int
		b     int
	}{
		{[]int{128}, 3}, {[]int{64, 16}, 2}, {[]int{16, 8, 32}, 2}, {[]int{1, 8}, 2}, {[]int{32, 128}, 3},
	} {
		ns := make([]int, len(g.shape))
		for t, e := range g.shape {
			ns[t] = bitutil.Log2(e)
		}
		std := tile.NewStandard(ns, g.b)
		hat := wavelet.TransformStandard(dataset.Dense(g.shape, int64(80+i)))
		for _, tiling := range []tile.Tiling{std, tile.NewSequential(g.shape, std.BlockSize())} {
			name := fmt.Sprintf("%v/b%d/%T", g.shape, g.b, tiling)
			st, counting, log := loggedStore(t, tiling, hat)
			h := sha256.New()
			record := func(got *ndarray.Array, blocks int) { recordDigest(h, got, blocks) }
			rng := rand.New(rand.NewSource(int64(90 + i)))
			d := len(g.shape)
			for trial := 0; trial < 6; trial++ {
				start, extent := make([]int, d), make([]int, d)
				block := make(dyadic.Range, d)
				for t, e := range g.shape {
					start[t] = rng.Intn(e)
					extent[t] = 1 + rng.Intn(e-start[t])
					m := rng.Intn(ns[t] + 1)
					block[t] = dyadic.NewInterval(m, rng.Intn(1<<uint(ns[t]-m)))
				}
				record(checkOneRead(t, counting, log, func() (*ndarray.Array, int, error) { return Box(st, start, extent) }))
				for sum := 0; sum < d; sum++ {
					s, e := start[sum], extent[sum]
					start[sum], extent[sum] = 0, 1
					record(checkOneRead(t, counting, log, func() (*ndarray.Array, int, error) { return Band(st, start, extent, sum) }))
					start[sum], extent[sum] = s, e
				}
				record(checkOneRead(t, counting, log, func() (*ndarray.Array, int, error) { return DyadicStandard(st, block) }))
			}
			if got, want := fmt.Sprintf("%x", h.Sum(nil)[:12]), extractionDigests[name]; got != want {
				t.Errorf("%s: extraction digest %s, pinned %s", name, got, want)
			}
		}
	}
	// The non-standard rows run BoxNonStandard and DyadicNonStandard on
	// cubes of edge 2^n, n a multiple of b or not, and smaller than b.
	for i, g := range []struct{ n, d, b int }{
		{7, 1, 3}, {5, 2, 2}, {4, 2, 2}, {2, 2, 3}, {3, 3, 2}, {2, 3, 3},
	} {
		shape := make([]int, g.d)
		for t := range shape {
			shape[t] = 1 << uint(g.n)
		}
		tiling := tile.NewNonStandard(g.n, g.d, g.b)
		name := fmt.Sprintf("%v/b%d/%T", shape, g.b, tiling)
		hat := wavelet.TransformNonStandard(dataset.Dense(shape, int64(60+i)))
		st, counting, log := loggedStore(t, tiling, hat)
		h := sha256.New()
		record := func(got *ndarray.Array, blocks int) { recordDigest(h, got, blocks) }
		rng := rand.New(rand.NewSource(int64(30 + i)))
		for trial := 0; trial < 6; trial++ {
			start, extent, pos := make([]int, g.d), make([]int, g.d), make([]int, g.d)
			m := rng.Intn(g.n + 1)
			for t, e := range shape {
				start[t] = rng.Intn(e)
				extent[t] = 1 + rng.Intn(e-start[t])
				pos[t] = rng.Intn(1 << uint(g.n-m))
			}
			record(checkOneRead(t, counting, log, func() (*ndarray.Array, int, error) { return BoxNonStandard(st, start, extent) }))
			record(checkOneRead(t, counting, log, func() (*ndarray.Array, int, error) { return DyadicNonStandard(st, m, pos) }))
		}
		if got, want := fmt.Sprintf("%x", h.Sum(nil)[:12]), extractionDigests[name]; got != want {
			t.Errorf("%s: extraction digest %s, pinned %s", name, got, want)
		}
	}
}

// recordDigest writes one extraction's block count and values into h.
func recordDigest(h hash.Hash, got *ndarray.Array, blocks int) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(blocks))
	h.Write(buf[:])
	for _, v := range got.Data() {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}
