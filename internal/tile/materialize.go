package tile

import (
	"fmt"

	"github.com/shiftsplit/shiftsplit/internal/bitutil"
	"github.com/shiftsplit/shiftsplit/internal/dyadic"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
)

// Materialize writes a complete transform hat into a Standard or
// NonStandard tiled store, every slot of every block: the real
// coefficients at their Locate positions and each tile's scaling slot.
// It buckets hat as the merge of the whole domain, with the kernels and
// the slot step of every bucketed update (the embedding of the level-n
// block at position 0 on the standard form, its SHIFT and SPLIT on the
// non-standard), so a materialized layout and a maintained one are the
// same sums. Every block is written, in ascending order as one vectored
// write, zeros where nothing landed, so a materialize also rewrites blocks
// the transform leaves empty. hat must have the tiled domain's shape.
func Materialize(st *Store, hat *ndarray.Array) error {
	t := st.Tiling()
	bs := NewBucketSet(t.BlockSize())
	switch tt := t.(type) {
	case *Standard:
		whole := make(dyadic.Range, tt.Dims())
		for i := range whole {
			whole[i].Level = tt.Dim(i).Levels()
		}
		AccumulateEmbedStandard(t, tt.Domain(), whole, hat, bs)
	case *NonStandard:
		pos := make([]int, tt.d)
		AccumulateShiftNonStandard(t, tt.Domain(), tt.n, pos, hat, bs)
		AccumulateSplitNonStandard(t, tt.Domain(), tt.n, pos, hat.Data()[0], bs)
	default:
		return fmt.Errorf("tile: Materialize needs a *Standard or *NonStandard tiling, got %T", t)
	}
	AccumulateScalingSlots(t, bs)
	ids := make([]int, t.NumBlocks())
	frames := make([][]float64, len(ids))
	buckets := bs.Buckets()
	for id := range ids {
		ids[id] = id
		if len(buckets) > 0 && buckets[0].Block == id {
			frames[id], buckets = buckets[0].Deltas, buckets[1:]
		} else {
			frames[id] = make([]float64, t.BlockSize())
		}
	}
	return st.WriteTiles(ids, frames)
}

// AffectedTiles returns the number of distinct blocks touched by a set of
// coefficient coordinates, the quantity Table 1 bounds for SHIFT and SPLIT.
func AffectedTiles(t Tiling, each func(visit func(coords []int))) int {
	seen := make(map[int]struct{})
	each(func(coords []int) {
		block, _ := t.Locate(coords)
		seen[block] = struct{}{}
	})
	return len(seen)
}

// TheoreticalShiftTilesOneD returns ceil(M/B), the §4.2 bound on tiles
// affected by a 1-d SHIFT of a block of size M with tile size B.
func TheoreticalShiftTilesOneD(m, b int) int {
	return bitutil.CeilDiv(1<<uint(m), 1<<uint(b))
}

// TheoreticalSplitTilesOneD returns ceil(log(N/M)/log B)-ish: the number of
// tiles met by a root path of n-m levels when tiles span b levels.
func TheoreticalSplitTilesOneD(n, m, b int) int {
	return bitutil.CeilDiv(n-m, b)
}
