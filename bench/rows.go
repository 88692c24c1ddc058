package main

import (
	"fmt"
	"math/rand"

	"github.com/shiftsplit/shiftsplit"
	"github.com/shiftsplit/shiftsplit/internal/appender"
	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
)

// Rows that belong to no workload: the SHIFT-SPLIT kernels on in-memory
// arrays, and the paper's block-I/O counts on plain in-memory stores (no
// journal, no epochs), which are exact and host-independent.

// kernelRows times the in-memory transform and merge kernels.
func kernelRows(src *ndarray.Array, seed int64, sz size) (map[string]metric, error) {
	out := map[string]metric{}
	delta := dataset.Dense([]int{mergeEdge, mergeEdge}, seed+5)
	rng := rand.New(rand.NewSource(seed + 17))
	const merges = 256
	blocks := make([]shiftsplit.Block, merges)
	for i := range blocks {
		blocks[i] = shiftsplit.CubeBlock(mergeLevel, rng.Intn(sz.Edge/mergeEdge), rng.Intn(sz.Edge/mergeEdge))
	}
	for f, form := range forms {
		var hat *shiftsplit.Array
		d, _ := bestOf(3, func() error { hat = shiftsplit.Transform(src, form); return nil }) // this closure cannot fail
		out["kernel.transform_ns_per_cell."+formNames[f]] = metric{float64(d) / float64(src.Size()), "ns"}
		dHat := shiftsplit.Transform(delta, form)
		d, err := bestOf(3, func() error {
			for _, b := range blocks {
				if err := shiftsplit.Merge(hat, form, b, dHat); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("kernel merge (%s): %w", formNames[f], err)
		}
		out["kernel.merge_ns."+formNames[f]] = metric{float64(d) / merges, "ns"}
	}
	return out, nil
}

// paperRows counts block I/Os of the paper's operations. The transform
// counts are read off the set-up that built the served stores; the rest
// run on in-memory stores of the same geometry.
func paperRows(set *setup, seed int64, sz size) (map[string]metric, error) {
	out := map[string]metric{}
	delta := dataset.Dense([]int{mergeEdge, mergeEdge}, seed+5)
	block := shiftsplit.CubeBlock(mergeLevel, 1, 1)
	for f, form := range forms {
		out["paper.transform_ios."+formNames[f]] = metric{float64(set.transformIOs[f].Total()), "blocks"}
		st, err := shiftsplit.CreateStore(shiftsplit.StoreOptions{Shape: []int{sz.Edge, sz.Edge}, Form: form, TileBits: tileBits})
		if err != nil {
			return nil, err
		}
		if err := st.TransformChunked(set.src, sz.ChunkBits); err != nil {
			return nil, err
		}
		st.ResetStats()
		if err := st.MergeBlock(block, shiftsplit.Transform(delta, form)); err != nil {
			return nil, err
		}
		out["paper.merge_ios."+formNames[f]] = metric{float64(st.Stats().Total()), "blocks"}
		if f == 0 {
			_, reads, err := st.ExtractBlock(block)
			if err != nil {
				return nil, err
			}
			out["paper.extract_ios"] = metric{float64(reads), "blocks"}
		}
		if err := st.Close(); err != nil {
			return nil, err
		}
	}

	// Appending: fill a 64x64 domain one [64,1] slab at a time (no
	// expansion), block I/Os per slab.
	app, err := appender.New([]int{ingestRows, ingestRows}, ingestTileBits)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 23))
	for col := 0; col < ingestRows; col++ {
		cells := make([]float64, ingestRows)
		for i := range cells {
			cells[i] = rng.NormFloat64()
		}
		if _, err := app.Append(1, ndarray.FromSlice(cells, ingestRows, 1)); err != nil {
			return nil, err
		}
	}
	out["paper.append_ios"] = metric{float64(app.TotalIO().Total()) / ingestRows, "blocks"}

	// Stream maintenance (Result 3): coefficient operations per item.
	syn := shiftsplit.NewStreamSynopsis(64, 6)
	for _, v := range dataset.RandomWalk(1<<12, seed) {
		syn.Add(v)
	}
	if err := syn.Finish(); err != nil {
		return nil, err
	}
	_, total := syn.PerItemCost()
	out["paper.stream_item_cost"] = metric{total, "ops"}
	return out, nil
}
