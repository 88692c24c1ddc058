package experiments

import (
	"fmt"
	"slices"

	"github.com/shiftsplit/shiftsplit/internal/bitutil"
	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/dyadic"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
	"github.com/shiftsplit/shiftsplit/internal/transform"
	"github.com/shiftsplit/shiftsplit/internal/wavelet"
)

// Fig11Config parametrizes the §6.1 memory-sweep experiment.
type Fig11Config struct {
	LogN       int   // per-dimension domain 2^LogN (paper: a 16 GB 4-d cube)
	Dims       int   // paper: 4 (lat, lon, alt, time)
	ChunkBits  []int // memory sweep: chunk edge 2^m, memory = 2^(m*d) coefficients
	Seed       int64
	SkipVitter bool // Vitter is the slowest engine; benches may skip it
}

// DefaultFig11 mirrors the paper's setup at laptop scale.
func DefaultFig11() Fig11Config {
	return Fig11Config{LogN: 4, Dims: 4, ChunkBits: []int{1, 2, 3}, Seed: 1}
}

func (c Fig11Config) dataset() *ndarray.Array {
	shape := make([]int, c.Dims)
	for i := range shape {
		shape[i] = 1 << uint(c.LogN)
	}
	if c.Dims == 4 {
		return dataset.Temperature(shape, c.Seed)
	}
	return dataset.Dense(shape, c.Seed)
}

// Fig11 reproduces Figure 11 (effect of larger memory on transformation
// cost, measured in coefficient I/Os): Vitter et al. versus SHIFT-SPLIT in
// both forms, as available memory grows.
func Fig11(c Fig11Config) (*Table, error) {
	src := c.dataset()
	t := &Table{
		Title:   fmt.Sprintf("Figure 11 — transformation I/O (coefficients) vs memory; %d-d TEMPERATURE, N=%d", c.Dims, 1<<uint(c.LogN)),
		Columns: []string{"memory (coefs)", "Vitter et al.", "Shift-Split (standard)", "Shift-Split (non-standard)"},
	}
	shape := src.Shape()
	ns := make([]int, len(shape))
	for i, s := range shape {
		ns[i] = bitutil.Log2(s)
	}
	for _, m := range c.ChunkBits {
		memory := bitutil.IntPow(1<<uint(m), c.Dims)

		cS := storage.NewCounting(storage.NewMemStore(1))
		stS, err := tile.NewStore(cS, tile.NewSequential(shape, 1))
		if err != nil {
			return nil, err
		}
		stats, err := chunkedR1(src, m, stS)
		if err != nil {
			return nil, err
		}
		standardIO := cS.Stats().Total() + stats.InputCoefReads

		cN := storage.NewCounting(storage.NewMemStore(1))
		stN, err := tile.NewStore(cN, tile.NewSequential(shape, 1))
		if err != nil {
			return nil, err
		}
		statsN, err := transform.ChunkedNonStandard(src, m, stN, 0)
		if err != nil {
			return nil, err
		}
		nonStdIO := cN.Stats().Total() + statsN.InputCoefReads

		vitterCell := "-"
		if !c.SkipVitter {
			cV := storage.NewCounting(storage.NewMemStore(1))
			statsV, err := transform.Vitter(src, memory, cV, 1)
			if err != nil {
				return nil, err
			}
			vitterCell = fmt.Sprintf("%d", cV.Stats().Total()+statsV.InputCoefReads)
		}
		t.Add(memory, vitterCell, standardIO, nonStdIO)
	}
	t.Notes = append(t.Notes,
		"expected shape: standard falls as memory grows, non-standard stays flat and lowest, Vitter stays highest (paper Figure 11)")
	return t, nil
}

// Fig12Config parametrizes the §6.1 tile-size sweep.
type Fig12Config struct {
	LogNs     []int // dataset sweep: per-dimension domain 2^n, d = 2
	ChunkBits int   // memory = chunk edge 2^m per dimension (paper: 64)
	TileBits  []int // per-dimension tile edge 2^b; block = 2^(b*d) coefficients
	Seed      int64
}

// DefaultFig12 mirrors the paper's setup at laptop scale.
func DefaultFig12() Fig12Config {
	return Fig12Config{LogNs: []int{6, 7, 8}, ChunkBits: 4, TileBits: []int{2, 3}, Seed: 2}
}

// Fig12 reproduces Figure 12 (effect of larger tiles): block I/O of the
// chunked transformation as the dataset grows, for two tile sizes and both
// forms, d=2.
func Fig12(c Fig12Config) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("Figure 12 — transformation I/O (blocks) vs dataset size; d=2, memory=%d^2", 1<<uint(c.ChunkBits)),
		Columns: []string{"dataset (cells)"},
	}
	for _, b := range c.TileBits {
		blk := bitutil.IntPow(1<<uint(b), 2)
		t.Columns = append(t.Columns,
			fmt.Sprintf("standard (tile=%d)", blk),
			fmt.Sprintf("non-standard (tile=%d)", blk))
	}
	for _, logN := range c.LogNs {
		n := 1 << uint(logN)
		src := dataset.Dense([]int{n, n}, c.Seed)
		row := []interface{}{n * n}
		for _, b := range c.TileBits {
			cS := storage.NewCounting(storage.NewMemStore(bitutil.IntPow(1<<uint(b), 2)))
			stS, err := tile.NewStore(cS, tile.NewStandard([]int{logN, logN}, b))
			if err != nil {
				return nil, err
			}
			if _, err := chunkedR1(src, c.ChunkBits, stS); err != nil {
				return nil, err
			}
			cN := storage.NewCounting(storage.NewMemStore(bitutil.IntPow(1<<uint(b), 2)))
			stN, err := tile.NewStore(cN, tile.NewNonStandard(logN, 2, b))
			if err != nil {
				return nil, err
			}
			if _, err := transform.ChunkedNonStandard(src, c.ChunkBits, stN, 0); err != nil {
				return nil, err
			}
			row = append(row, cS.Stats().Total(), cN.Stats().Total())
		}
		t.Add(row...)
	}
	t.Notes = append(t.Notes,
		"expected shape: linear growth in dataset size; larger tiles cost fewer blocks; non-standard below standard (paper Figure 12)")
	return t, nil
}

// Table2Config parametrizes the complexity cross-check.
type Table2Config struct {
	LogN, Dims, ChunkBits, TileBits int
	Seed                            int64
}

// DefaultTable2 uses a 2-d cube large enough to separate the terms.
func DefaultTable2() Table2Config {
	return Table2Config{LogN: 7, Dims: 2, ChunkBits: 4, TileBits: 2, Seed: 3}
}

// Table2 reproduces Table 2: measured transformation I/O against the
// paper's closed-form complexities for the three methods, in coefficients
// and in blocks.
func Table2(c Table2Config) (*Table, error) {
	shape := make([]int, c.Dims)
	ns := make([]int, c.Dims)
	for i := range shape {
		shape[i] = 1 << uint(c.LogN)
		ns[i] = c.LogN
	}
	src := dataset.Dense(shape, c.Seed)
	N := 1 << uint(c.LogN)
	M := 1 << uint(c.ChunkBits)
	B := 1 << uint(c.TileBits)
	Nd := bitutil.IntPow(N, c.Dims)
	Md := bitutil.IntPow(M, c.Dims)
	logNM := float64(c.LogN - c.ChunkBits)

	t := &Table{
		Title: fmt.Sprintf("Table 2 — transformation I/O complexities, N=%d d=%d M=%d B=%d",
			N, c.Dims, M, B),
		Columns: []string{"method", "measured (coefs)", "formula (coefs)", "measured (blocks)", "formula (blocks)"},
	}

	run := func(engine func(out *tile.Store) error, tiling tile.Tiling) (int64, error) {
		cnt := storage.NewCounting(storage.NewMemStore(tiling.BlockSize()))
		st, err := tile.NewStore(cnt, tiling)
		if err != nil {
			return 0, err
		}
		if err := engine(st); err != nil {
			return 0, err
		}
		return cnt.Stats().Total(), nil
	}

	// Vitter baseline (coefficient granularity only; it does not use the
	// tiling).
	cV := storage.NewCounting(storage.NewMemStore(1))
	if _, err := transform.Vitter(src, Md, cV, 1); err != nil {
		return nil, err
	}
	vitterFormula := fmt.Sprintf("O(N^d log_M N) ~ %d", int(float64(Nd)*(float64(c.LogN)/float64(bitutil.Max(c.ChunkBits, 1)))))
	t.Add("Vitter et al. (standard)", cV.Stats().Total(), vitterFormula, "-", "-")

	stdCoefs, err := run(func(out *tile.Store) error {
		_, err := chunkedR1(src, c.ChunkBits, out)
		return err
	}, tile.NewSequential(shape, 1))
	if err != nil {
		return nil, err
	}
	stdBlocks, err := run(func(out *tile.Store) error {
		_, err := chunkedR1(src, c.ChunkBits, out)
		return err
	}, tile.NewStandard(ns, c.TileBits))
	if err != nil {
		return nil, err
	}
	fCoefs := float64(Nd) / float64(Md) * pow(float64(M)+logNM, c.Dims)
	fBlocks := float64(Nd) / float64(Md) * pow(float64(M)/float64(B)+logNM/log2f(B), c.Dims)
	t.Add("Shift-Split (standard)",
		stdCoefs, fmt.Sprintf("O(N^d/M^d (M+log N/M)^d) ~ %.0f", fCoefs),
		stdBlocks, fmt.Sprintf("O(N^d/M^d (M/B+log_B N/M)^d) ~ %.0f", fBlocks))

	onceCoefs, err := run(func(out *tile.Store) error {
		_, err := transform.ChunkedStandard(src, c.ChunkBits, out, 0)
		return err
	}, tile.NewSequential(shape, 1))
	if err != nil {
		return nil, err
	}
	onceBlocks, err := run(func(out *tile.Store) error {
		_, err := transform.ChunkedStandard(src, c.ChunkBits, out, 0)
		return err
	}, tile.NewStandard(ns, c.TileBits))
	if err != nil {
		return nil, err
	}
	t.Add("Shift-Split (standard, z-order write-once)",
		onceCoefs, fmt.Sprintf("O(N^d) = %d", Nd),
		onceBlocks, fmt.Sprintf("O(N^d/B^d) = %d", Nd/bitutil.IntPow(B, c.Dims)))

	nonCoefs, err := run(func(out *tile.Store) error {
		_, err := transform.ChunkedNonStandard(src, c.ChunkBits, out, 0)
		return err
	}, tile.NewSequential(shape, 1))
	if err != nil {
		return nil, err
	}
	nonBlocks, err := run(func(out *tile.Store) error {
		_, err := transform.ChunkedNonStandard(src, c.ChunkBits, out, 0)
		return err
	}, tile.NewNonStandard(c.LogN, c.Dims, c.TileBits))
	if err != nil {
		return nil, err
	}
	t.Add("Shift-Split (non-standard)",
		nonCoefs, fmt.Sprintf("O(N^d) = %d", Nd),
		nonBlocks, fmt.Sprintf("O(N^d/B^d) = %d", Nd/bitutil.IntPow(B, c.Dims)))
	t.Notes = append(t.Notes,
		"measured counts exclude reading the source data (identical for the shift-split engines)",
		"Shift-Split (standard) is the paper's Result 1 schedule, one read and one write of every touched tile per chunk; the write-once row buckets the same chunks in z-order and writes each block once")
	return t, nil
}

// chunkedR1 is the paper's Result 1 schedule, the standard-form baseline
// of Table 2 and Figures 11–12: chunks of edge 2^m (clamped to each
// extent) in row-major order, each transformed in memory, bucketed with
// the SHIFT-SPLIT kernels and the scaling-slot step, and applied with one
// read and one write of every tile it touches (tile.Store.ApplyBuckets),
// with no caching across chunks. All-zero chunks are skipped.
// transform.ChunkedStandard buckets the same chunks into a write-once sink
// instead, and reads nothing.
func chunkedR1(src *ndarray.Array, m int, out *tile.Store) (transform.Stats, error) {
	var st transform.Stats
	shape, tiling := src.Shape(), out.Tiling()
	d := len(shape)
	levels, grid, chunkShape := make([]int, d), make([]int, d), make([]int, d)
	chunks := 1
	for i, e := range shape {
		levels[i] = min(m, bitutil.Log2(e))
		chunkShape[i] = 1 << uint(levels[i])
		grid[i] = e / chunkShape[i]
		chunks *= grid[i]
	}
	chunk, ws, set := ndarray.New(chunkShape...), wavelet.NewScratch(), tile.NewBucketSet(tiling.BlockSize())
	start, block := make([]int, d), make(dyadic.Range, d)
	for seq := 0; seq < chunks; seq++ {
		for i, rest := d-1, seq; i >= 0; i, rest = i-1, rest/grid[i] {
			block[i] = dyadic.Interval{Level: levels[i], Pos: rest % grid[i]}
			start[i] = block[i].Start()
		}
		src.SubCopyInto(chunk, start)
		st.Chunks++
		st.InputCoefReads += int64(chunk.Size())
		if !slices.ContainsFunc(chunk.Data(), func(v float64) bool { return v != 0 }) {
			st.SkippedChunks++
			continue
		}
		wavelet.TransformStandardInPlace(chunk, ws)
		tile.AccumulateEmbedStandard(tiling, shape, block, chunk, set)
		tile.AccumulateScalingSlots(tiling, set)
		err := out.ApplyBuckets(set.Buckets())
		set.Reset()
		if err != nil {
			return st, err
		}
	}
	return st, nil
}

func pow(x float64, e int) float64 {
	r := 1.0
	for i := 0; i < e; i++ {
		r *= x
	}
	return r
}

func log2f(x int) float64 {
	r := 0.0
	for x > 1 {
		x /= 2
		r++
	}
	if r == 0 {
		return 1
	}
	return r
}
