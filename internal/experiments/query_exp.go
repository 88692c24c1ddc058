package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/dyadic"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/query"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
	"github.com/shiftsplit/shiftsplit/internal/transform"
	"github.com/shiftsplit/shiftsplit/internal/wavelet"
)

// QueryCostConfig parametrizes the query-time tiling comparison (the reason
// §3 exists: "minimize the number of disk I/Os needed to perform any
// operation in the wavelet domain, including the important reconstruction
// operation").
type QueryCostConfig struct {
	LogN     int
	TileBits int
	Queries  int
	Seed     int64
}

// DefaultQueryCost uses a 64x64 store.
func DefaultQueryCost() QueryCostConfig {
	return QueryCostConfig{LogN: 6, TileBits: 2, Queries: 200, Seed: 10}
}

// QueryCost measures the block I/O of point and range queries under three
// layouts: the paper's tree tiling with stored scaling coefficients
// (single-block points), the tree tiling queried via root paths, and a flat
// sequential layout (the no-tiling baseline).
func QueryCost(c QueryCostConfig) (*Table, error) {
	N := 1 << uint(c.LogN)
	shape := []int{N, N}
	src := dataset.Dense(shape, c.Seed)
	hat := wavelet.TransformStandard(src)

	tiling := tile.NewStandard([]int{c.LogN, c.LogN}, c.TileBits)
	tiled, err := tile.NewStore(storage.NewMemStore(tiling.BlockSize()), tiling)
	if err != nil {
		return nil, err
	}
	if _, err := transform.ChunkedStandard(src, c.LogN, tiled, 1); err != nil {
		return nil, err
	}
	seqTiling := tile.NewSequential(shape, tiling.BlockSize())
	seq, err := tile.NewStore(storage.NewMemStore(tiling.BlockSize()), seqTiling)
	if err != nil {
		return nil, err
	}
	if err := tile.WriteArray(seq, hat); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(c.Seed))
	var singleTile, tiledPath, seqPath int
	for q := 0; q < c.Queries; q++ {
		p := []int{rng.Intn(N), rng.Intn(N)}
		_, io1, err := query.PointStandard(tiled, p)
		if err != nil {
			return nil, err
		}
		_, io2, err := query.PointViaRootPath(tiled, shape, p)
		if err != nil {
			return nil, err
		}
		_, io3, err := query.PointViaRootPath(seq, shape, p)
		if err != nil {
			return nil, err
		}
		singleTile += io1
		tiledPath += io2
		seqPath += io3
	}
	var tiledRange, seqRange int
	for q := 0; q < c.Queries/4; q++ {
		s := []int{rng.Intn(N), rng.Intn(N)}
		sh := []int{1 + rng.Intn(N-s[0]), 1 + rng.Intn(N-s[1])}
		_, io1, err := query.RangeSumStandard(tiled, shape, s, sh)
		if err != nil {
			return nil, err
		}
		_, io2, err := query.RangeSumStandard(seq, shape, s, sh)
		if err != nil {
			return nil, err
		}
		tiledRange += io1
		seqRange += io2
	}

	maintained, err := maintainedQueryStore(c, src, tiling, rng)
	if err != nil {
		return nil, err
	}
	var afterSlots, afterPath int
	for q := 0; q < c.Queries; q++ {
		p := []int{rng.Intn(N), rng.Intn(N)}
		v1, io1, err := query.PointStandard(maintained, p)
		if err != nil {
			return nil, err
		}
		v2, io2, err := query.PointViaRootPath(maintained, shape, p)
		if err != nil {
			return nil, err
		}
		if math.Abs(v1-v2) > 1e-9*math.Max(1, math.Abs(v2)) {
			return nil, fmt.Errorf("experiments: maintained point %v = %g from its scaling slot, %g on the root path", p, v1, v2)
		}
		afterSlots += io1
		afterPath += io2
	}

	t := &Table{
		Title:   fmt.Sprintf("Query cost (§3) — avg blocks per query; N=%d, tile=%d coefficients", N, tiling.BlockSize()),
		Columns: []string{"workload", "tiling + scaling slots", "tiling (root path)", "sequential layout"},
	}
	qf := float64(c.Queries)
	rf := float64(c.Queries / 4)
	t.Add("point reconstruction", float64(singleTile)/qf, float64(tiledPath)/qf, float64(seqPath)/qf)
	t.Add("range sum", "-", float64(tiledRange)/rf, float64(seqRange)/rf)
	t.Add("point, after chunked transform + merges", float64(afterSlots)/qf, float64(afterPath)/qf, "-")
	t.Notes = append(t.Notes,
		"the stored per-tile scaling coefficients cut point queries to one block; the tree tiling alone already beats the flat layout",
		"the last row's store is built by the chunked transform and then takes merges, every engine keeping the scaling slots current")
	return t, nil
}

// maintainedQueryStore builds the tiled store the way a served one is
// maintained: the chunked transform (chunks of a quarter of the edge), then
// Queries/20 merges of random 4x4 blocks, each bucketed with the change it
// makes to the touched tiles' scaling slots.
func maintainedQueryStore(c QueryCostConfig, src *ndarray.Array, tiling *tile.Standard, rng *rand.Rand) (*tile.Store, error) {
	st, err := tile.NewStore(storage.NewMemStore(tiling.BlockSize()), tiling)
	if err != nil {
		return nil, err
	}
	if _, err := transform.ChunkedStandard(src, c.LogN-2, st, 0); err != nil {
		return nil, err
	}
	shape := src.Shape()
	set := tile.NewBucketSet(tiling.BlockSize())
	for i := 0; i < c.Queries/20; i++ {
		block := dyadic.NewCubeRange(2, []int{rng.Intn(shape[0] / 4), rng.Intn(shape[1] / 4)})
		tile.AccumulateEmbedStandard(tiling, shape, block, wavelet.TransformStandard(dataset.Dense([]int{4, 4}, c.Seed+int64(i))), set)
		tile.AccumulateScalingSlots(tiling, set)
		if err := st.ApplyBuckets(set.Buckets()); err != nil {
			return nil, err
		}
		set.Reset()
	}
	return st, nil
}
