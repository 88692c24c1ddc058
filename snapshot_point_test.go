package shiftsplit

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/query"
	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// oldPointNonStandard is the non-standard root-path point query as it ran
// before points moved onto the range-sum kernel: reconstruct the 1-cell
// dyadic block by inverse SHIFT-SPLIT and read its one value.
func oldPointNonStandard(sn *Snapshot, point []int) (float64, int, error) {
	vals, io, err := sn.ExtractBlock(CubeBlock(0, point...))
	if err != nil {
		return 0, io, err
	}
	return vals.At(make([]int, len(point))...), io, nil
}

// blockLog records the block ids read through it.
type blockLog struct {
	storage.BlockStore
	read map[int]bool
}

func (b *blockLog) ReadBlock(id int, buf []float64) error {
	b.read[id] = true
	return b.BlockStore.ReadBlock(id, buf)
}

func (b *blockLog) ReadBlocks(ids []int, bufs [][]float64) error {
	for _, id := range ids {
		b.read[id] = true
	}
	return storage.ReadBlocksOf(b.BlockStore, ids, bufs)
}

// TestNonStandardPointMatchesExtractBlock holds the kernel's non-standard
// points to the extraction they replaced, on every cell of d = 2 and d = 3
// stores without scaling coefficients: the same block count, the same
// blocks fetched, and the value to 1e-12 relative.
func TestNonStandardPointMatchesExtractBlock(t *testing.T) {
	for _, g := range []struct {
		shape    []int
		tileBits int
	}{
		{[]int{32, 32}, 2},
		{[]int{16, 16}, 1},
		{[]int{8, 8, 8}, 1},
		{[]int{8, 8, 8}, 2},
	} {
		t.Run(fmt.Sprintf("%v/b=%d", g.shape, g.tileBits), func(t *testing.T) {
			log := &blockLog{read: make(map[int]bool)}
			st, err := CreateStore(StoreOptions{
				Shape: g.shape, Form: NonStandard, TileBits: g.tileBits,
				BaseWrap: func(bs storage.BlockStore) storage.BlockStore { log.BlockStore = bs; return log },
			})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if err := st.TransformChunked(randArray(rand.New(rand.NewSource(31)), g.shape...), 1); err != nil {
				t.Fatal(err)
			}
			point := make([]int, len(g.shape))
			err = st.WithSnapshot(func(sn *Snapshot) error {
				for cell := 0; cell < volume(g.shape); cell++ {
					for i, rest := len(point)-1, cell; i >= 0; i-- {
						point[i], rest = rest%g.shape[i], rest/g.shape[i]
					}
					clear(log.read)
					want, wantIO, err := oldPointNonStandard(sn, point)
					if err != nil {
						return err
					}
					wantRead := maps.Clone(log.read)
					if len(wantRead) != wantIO {
						return fmt.Errorf("cell %v: extraction counts %d blocks, the device saw %v", point, wantIO, wantRead)
					}
					clear(log.read)
					got, gotIO, err := query.PointViaRootPathNonStandard(sn.ts, point)
					if err != nil {
						return err
					}
					if gotIO != wantIO || !maps.Equal(log.read, wantRead) {
						return fmt.Errorf("cell %v: %d blocks %v, extraction read %d blocks %v", point, gotIO, log.read, wantIO, wantRead)
					}
					if math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
						return fmt.Errorf("cell %v = %v, extraction gives %v", point, got, want)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func volume(shape []int) int {
	n := 1
	for _, e := range shape {
		n *= e
	}
	return n
}
