package tile

import (
	"fmt"

	"github.com/shiftsplit/shiftsplit/internal/bitutil"
	"github.com/shiftsplit/shiftsplit/internal/core"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// materializeGroup bounds how many computed blocks a materialization
// buffers before flushing them as one vectored write: large enough that a
// full group is one device request over a consecutive run, small enough
// that the staging memory stays a fraction of the transform itself.
const materializeGroup = 64

// MaterializeStandard writes a complete standard-form transform into a tiled
// store, filling every slot of every block: real transform coefficients at
// their Locate positions plus the redundant generalized coefficients (mixed
// per-dimension scaling/detail products, §3.2) in the slots whose
// per-dimension component is the tile-root scaling.
//
// Blocks are computed and written in ascending block order, the order
// crash recovery expects.
func MaterializeStandard(st *Store, hat *ndarray.Array) error {
	fill, numBlocks, err := StandardBlockFiller(st.Tiling(), hat)
	if err != nil {
		return err
	}
	// Compute blocks into bounded groups and flush each group as one
	// vectored write over its consecutive id run, keeping the ascending
	// write order the sequential loop produced.
	bsz := st.Tiling().BlockSize()
	for base := 0; base < numBlocks; base += materializeGroup {
		n := numBlocks - base
		if n > materializeGroup {
			n = materializeGroup
		}
		group := storage.SliceFrames(make([]float64, n*bsz), n, bsz)
		ids := make([]int, n)
		for i := 0; i < n; i++ {
			ids[i] = base + i
			fill(base+i, group[i])
		}
		if err := st.WriteTiles(ids, group); err != nil {
			return err
		}
	}
	return nil
}

// StandardBlockFiller returns a function computing any single block of the
// materialized standard layout into a caller-provided buffer, plus the
// block count. The filler only reads hat; each call allocates only small
// per-call index scratch.
func StandardBlockFiller(t Tiling, hat *ndarray.Array) (fill func(block int, out []float64), numBlocks int, err error) {
	tiling, ok := t.(*Standard)
	if !ok {
		return nil, 0, fmt.Errorf("tile: MaterializeStandard needs a *Standard tiling, got %T", t)
	}
	d := tiling.Dims()
	if hat.Dims() != d {
		return nil, 0, fmt.Errorf("tile: transform has %d dims, tiling %d", hat.Dims(), d)
	}
	// Per-dimension basis table: basis[t][tile*B+slot] lists the weighted
	// 1-d transform indices whose combination yields that slot's value
	// along dimension t (nil for unused slots of shallow tiles).
	basis := make([][][]core.Target, d)
	for t := 0; t < d; t++ {
		oneD := tiling.Dim(t)
		n := oneD.Levels()
		if hat.Extent(t) != 1<<uint(n) {
			return nil, 0, fmt.Errorf("tile: dim %d extent %d does not match tiling n=%d", t, hat.Extent(t), n)
		}
		B := oneD.BlockSize()
		table := make([][]core.Target, oneD.NumBlocks()*B)
		for idx := 0; idx < 1<<uint(n); idx++ {
			bt, slot := oneD.Locate1D(idx)
			table[bt*B+slot] = []core.Target{{Index: idx, Weight: 1}}
		}
		for bt := 0; bt < oneD.NumBlocks(); bt++ {
			if bt == oneD.top {
				continue // slot 0 there is the overall average, located above
			}
			j, k := oneD.RootOf(bt)
			table[bt*B+0] = core.ScalingPath1D(n, j, k)
		}
		basis[t] = table
	}
	B := 1
	if d > 0 {
		B = tiling.Dim(0).BlockSize()
	}
	fill = func(block int, out []float64) {
		perDimTiles := tiling.PerDimBlocks(block)
		perDimSlots := make([]int, d)
		coords := make([]int, d)
		choice := make([]int, d)
		lists := make([][]core.Target, d)
		storage.ZeroFill(out)
		for slot := 0; slot < tiling.BlockSize(); slot++ {
			// Decompose the flat slot into per-dimension slots.
			rem := slot
			empty := false
			for t := d - 1; t >= 0; t-- {
				perDimSlots[t] = rem % B
				rem /= B
				lists[t] = basis[t][perDimTiles[t]*B+perDimSlots[t]]
				if lists[t] == nil {
					empty = true
				}
			}
			if empty {
				continue
			}
			for t := range choice {
				choice[t] = 0
			}
			sum := 0.0
			for {
				w := 1.0
				for t := 0; t < d; t++ {
					tt := lists[t][choice[t]]
					coords[t] = tt.Index
					w *= tt.Weight
				}
				sum += w * hat.At(coords...)
				t := d - 1
				for ; t >= 0; t-- {
					choice[t]++
					if choice[t] < len(lists[t]) {
						break
					}
					choice[t] = 0
				}
				if t < 0 {
					break
				}
			}
			out[slot] = sum
		}
	}
	return fill, tiling.NumBlocks(), nil
}

// MaterializeNonStandard writes a complete non-standard transform into a
// tiled store: every detail at its Locate position, the overall average in
// slot 0 of the top tile, and each other tile's root-cell scaling
// coefficient in its slot 0.
func MaterializeNonStandard(st *Store, hat *ndarray.Array) error {
	blocks, scaling, err := NonStandardBlocks(st.Tiling(), hat)
	if err != nil {
		return err
	}
	for block := 1; block < len(blocks); block++ {
		blocks[block][0] = scaling(block)
	}
	ids := make([]int, len(blocks))
	for id := range blocks {
		ids[id] = id
	}
	// The whole layout is one consecutive run 0..numBlocks-1: a single
	// vectored write in the same ascending order as the per-tile loop.
	return st.WriteTiles(ids, blocks)
}

// NonStandardBlocks lays hat out into dense per-block slices (details and
// the overall average at their Locate positions) and returns a function
// computing any non-root block's slot-0 scaling coefficient. The scaling
// function only reads hat.
func NonStandardBlocks(t Tiling, hat *ndarray.Array) ([][]float64, func(block int) float64, error) {
	tiling, ok := t.(*NonStandard)
	if !ok {
		return nil, nil, fmt.Errorf("tile: MaterializeNonStandard needs a *NonStandard tiling, got %T", t)
	}
	if hat.Dims() != tiling.d {
		return nil, nil, fmt.Errorf("tile: transform has %d dims, tiling %d", hat.Dims(), tiling.d)
	}
	for t := 0; t < tiling.d; t++ {
		if hat.Extent(t) != 1<<uint(tiling.n) {
			return nil, nil, fmt.Errorf("tile: extent %d does not match tiling n=%d", hat.Extent(t), tiling.n)
		}
	}
	blocks := make([][]float64, tiling.NumBlocks())
	for i := range blocks {
		blocks[i] = make([]float64, tiling.BlockSize())
	}
	hat.Each(func(coords []int, v float64) {
		block, slot := tiling.Locate(coords)
		blocks[block][slot] = v
	})
	scaling := func(block int) float64 {
		level, pos := tiling.RootOf(block)
		return core.ScalingNonStandard(hat, level, pos)
	}
	return blocks, scaling, nil
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
