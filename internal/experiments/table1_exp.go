package experiments

import (
	"fmt"

	"github.com/shiftsplit/shiftsplit/internal/bitutil"
	"github.com/shiftsplit/shiftsplit/internal/core"
	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/dyadic"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
	"github.com/shiftsplit/shiftsplit/internal/transform"
	"github.com/shiftsplit/shiftsplit/internal/wavelet"
)

// reshape reinterprets an array's data with a new shape of equal size.
func reshape(a *ndarray.Array, shape []int) *ndarray.Array {
	return ndarray.FromSlice(a.Data(), shape...)
}

// Table1Config parametrizes the tiles-affected measurement.
type Table1Config struct {
	LogN, Dims, ChunkBits, TileBits int
}

// DefaultTable1 uses a 2-d setup with clearly separated terms.
func DefaultTable1() Table1Config {
	return Table1Config{LogN: 8, Dims: 2, ChunkBits: 4, TileBits: 2}
}

// Table1 reproduces Table 1: the number of tiles affected by one SHIFT and
// one SPLIT for a single chunk, standard versus non-standard, measured
// against the paper's bounds O((M/B)^d) and O((log_B N/M)^d) /
// O((2^d-1) log_B N/M).
func Table1(c Table1Config) (*Table, error) {
	N, M, B := 1<<uint(c.LogN), 1<<uint(c.ChunkBits), 1<<uint(c.TileBits)
	t := &Table{
		Title:   fmt.Sprintf("Table 1 — tiles affected by SHIFT/SPLIT of one chunk; N=%d M=%d B=%d d=%d", N, M, B, c.Dims),
		Columns: []string{"form", "operation", "coefficients", "tiles (measured)", "tiles (paper bound)"},
	}
	d := c.Dims
	shape := make([]int, d)
	ns := make([]int, d)
	for i := range shape {
		shape[i] = N
		ns[i] = c.LogN
	}
	chunkShape := make([]int, d)
	pos := make([]int, d)
	for i := range chunkShape {
		chunkShape[i] = M
		pos[i] = 1 // an interior chunk
	}
	chunk := dataset.Dense(chunkShape, 9)
	block := dyadic.NewCubeRange(c.ChunkBits, pos)

	// Standard form.
	stdTiling := tile.NewStandard(ns, c.TileBits)
	bHatS := wavelet.TransformStandard(chunk)
	shiftTiles := tile.AffectedTiles(stdTiling, func(visit func([]int)) {
		core.EachShiftStandard(shape, block, bHatS, func(coords []int, _ float64) { visit(coords) })
	})
	splitTiles := tile.AffectedTiles(stdTiling, func(visit func([]int)) {
		core.EachSplitStandard(shape, block, bHatS, func(coords []int, _ float64) { visit(coords) })
	})
	shiftBound := bitutil.IntPow(bitutil.CeilDiv(M, B), d)
	logBNM := bitutil.CeilDiv(c.LogN-c.ChunkBits, c.TileBits)
	splitBound := bitutil.IntPow(M/B+logBNM, d) - bitutil.IntPow(M/B, d) + 1
	t.Add("standard", "SHIFT", core.CountShiftStandard(shape, block), shiftTiles, fmt.Sprintf("O((M/B)^d) = %d", shiftBound))
	t.Add("standard", "SPLIT", core.CountSplitStandard(shape, block), splitTiles, fmt.Sprintf("O((M/B+log_B N/M)^d) ~ %d", splitBound))

	// Non-standard form.
	nsTiling := tile.NewNonStandard(c.LogN, d, c.TileBits)
	bHatN := wavelet.TransformNonStandard(chunk)
	shiftTilesN := tile.AffectedTiles(nsTiling, func(visit func([]int)) {
		core.EachShiftNonStandard(shape, c.ChunkBits, pos, bHatN, func(coords []int, _ float64) { visit(coords) })
	})
	splitTilesN := tile.AffectedTiles(nsTiling, func(visit func([]int)) {
		core.EachSplitNonStandard(shape, c.ChunkBits, pos, 1.0, func(coords []int, _ float64) { visit(coords) })
	})
	t.Add("non-standard", "SHIFT", core.CountShiftNonStandard(d, c.ChunkBits), shiftTilesN,
		fmt.Sprintf("O((M/B)^d) = %d", shiftBound))
	t.Add("non-standard", "SPLIT", core.CountSplitNonStandard(d, c.LogN, c.ChunkBits), splitTilesN,
		fmt.Sprintf("O(log_B N/M) = %d", bitutil.Max(logBNM, 1)))
	t.Notes = append(t.Notes,
		"SHIFT touches ~B^d fewer tiles than coefficients; SPLIT touches ~log B fewer (paper §4.2)")
	return t, nil
}

// R6Config parametrizes the partial-reconstruction comparison.
type R6Config struct {
	LogN, TileBits int
	Levels         []int // block edge exponents to extract
	Seed           int64
}

// DefaultR6 sweeps block sizes on a 2-d dataset.
func DefaultR6() R6Config {
	return R6Config{LogN: 7, TileBits: 2, Levels: []int{1, 2, 3, 4, 5}, Seed: 7}
}

// R6 reproduces the §5.4 comparison: block I/O to extract a dyadic region
// via inverse SHIFT-SPLIT versus full reconstruction versus cell-by-cell
// reconstruction, as the region grows.
func R6(c R6Config) (*Table, error) {
	N := 1 << uint(c.LogN)
	src := dataset.Dense([]int{N, N}, c.Seed)
	tiling := tile.NewStandard([]int{c.LogN, c.LogN}, c.TileBits)
	st, err := tile.NewStore(storage.NewMemStore(tiling.BlockSize()), tiling)
	if err != nil {
		return nil, err
	}
	if _, err := transform.ChunkedStandard(src, c.LogN, st, 1); err != nil {
		return nil, err
	}
	// A coefficient-granular twin of the same transform measures the
	// coefficient-level costs of §5.4 (Result 6's units).
	flatTiling := tile.NewSequential([]int{N, N}, 1)
	flatStore, err := tile.NewStore(storage.NewMemStore(1), flatTiling)
	if err != nil {
		return nil, err
	}
	hat := wavelet.TransformStandard(src)
	if err := tile.WriteArray(flatStore, hat); err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Result 6 — partial reconstruction cost; N=%d, tile=%d", N, tiling.BlockSize()),
		Columns: []string{"region", "shift-split blocks", "pointwise blocks", "full blocks", "shift-split coefs", "pointwise coefs (uncached)"},
	}
	for _, lv := range c.Levels {
		pos := (1 << uint(c.LogN-lv)) / 2
		block := dyadic.Range{dyadic.NewInterval(lv, pos), dyadic.NewInterval(lv, pos)}
		_, ssIO, err := reconstructDyadic(st, block)
		if err != nil {
			return nil, err
		}
		_, pwIO, err := reconstructPointwise(st, block.Start(), block.Shape())
		if err != nil {
			return nil, err
		}
		_, ssCoefs, err := reconstructDyadic(flatStore, block)
		if err != nil {
			return nil, err
		}
		// Cell-by-cell reconstruction without a cache pays the full Lemma-1
		// path per cell: volume * (log N + 1)^d accesses (§5.4).
		pwCoefs := block.Volume() * (c.LogN + 1) * (c.LogN + 1)
		t.Add(fmt.Sprintf("%dx%d", 1<<uint(lv), 1<<uint(lv)), ssIO, pwIO, tiling.NumBlocks(), ssCoefs, pwCoefs)
	}
	t.Notes = append(t.Notes,
		"shift-split extraction costs (M + log(N/M))^d coefficients (Result 6), far below the uncached pointwise cost and, for small regions, far below full reconstruction")
	return t, nil
}
