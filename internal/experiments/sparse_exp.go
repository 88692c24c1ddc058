package experiments

import (
	"fmt"

	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
	"github.com/shiftsplit/shiftsplit/internal/transform"
)

// SparseConfig parametrizes the sparse-data transformation experiment
// (paper §5.1's sparse accommodation: complexity in the number of non-zero
// values z rather than N^d).
type SparseConfig struct {
	LogN      int
	ChunkBits int
	TileBits  int
	// OccupiedFracs are the fractions of the domain edge covered by data
	// (the rest is zero), e.g. 1.0, 0.5, 0.25.
	OccupiedFracs []float64
	Seed          int64
}

// DefaultSparse sweeps occupancy on a 2-d dataset.
func DefaultSparse() SparseConfig {
	return SparseConfig{LogN: 7, ChunkBits: 3, TileBits: 2, OccupiedFracs: []float64{1, 0.5, 0.25, 0.125}, Seed: 8}
}

// SparseTransform measures how the chunked engines' I/O scales with the
// occupied fraction of a clustered-sparse dataset: all-zero chunks are
// skipped and all-zero blocks never written, so cost tracks z, not N^d.
func SparseTransform(c SparseConfig) (*Table, error) {
	N := 1 << uint(c.LogN)
	t := &Table{
		Title:   fmt.Sprintf("Sparse data (§5.1) — transformation I/O (blocks) vs occupancy; N=%d d=2", N),
		Columns: []string{"occupied", "non-zero cells", "standard I/O", "skipped chunks", "non-standard I/O", "blocks written"},
	}
	for _, frac := range c.OccupiedFracs {
		edge := int(float64(N) * frac)
		if edge < 1 {
			edge = 1
		}
		src := ndarray.New(N, N)
		if edge > 0 {
			blob := dataset.Dense([]int{edge, edge}, c.Seed)
			src.SubPaste(blob, []int{0, 0})
		}
		nz := 0
		for _, v := range src.Data() {
			if v != 0 {
				nz++
			}
		}

		cS := storage.NewCounting(storage.NewMemStore(tileBlk(c.TileBits)))
		stS, err := tile.NewStore(cS, tile.NewStandard([]int{c.LogN, c.LogN}, c.TileBits))
		if err != nil {
			return nil, err
		}
		statsS, err := chunkedR1(src, c.ChunkBits, stS)
		if err != nil {
			return nil, err
		}

		cN := storage.NewCounting(storage.NewMemStore(tileBlk(c.TileBits)))
		stN, err := tile.NewStore(cN, tile.NewNonStandard(c.LogN, 2, c.TileBits))
		if err != nil {
			return nil, err
		}
		_, err = transform.ChunkedNonStandard(src, c.ChunkBits, stN, 0)
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("%.0f%%", frac*100), nz,
			cS.Stats().Total(), statsS.SkippedChunks,
			cN.Stats().Total(), cN.Stats().Writes)
	}
	t.Notes = append(t.Notes,
		"zero chunks are skipped and all-zero blocks never written: I/O tracks the occupied region, the paper's sparse-data accommodation")
	return t, nil
}

func tileBlk(b int) int {
	s := 1 << uint(b)
	return s * s
}
