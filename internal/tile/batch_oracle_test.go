package tile

import "sort"

// Batch accumulates coefficient updates against a tiled store and applies
// them with one read and one write per touched block: a keyed Locate and a
// map lookup per coefficient, one ReadTile per block. It is the path
// Store.MergeBlock took before BucketSet/ApplyBuckets replaced it everywhere,
// kept as the reference the flat kernels are held to: the same blocks read
// and written, every coefficient ==-equal.
type Batch struct {
	store  *Store
	blocks map[int][]float64 // block id -> working copy (loaded on first touch)
	reads  int
}

// NewBatch starts an empty batch against st.
func NewBatch(st *Store) *Batch {
	return &Batch{store: st, blocks: make(map[int][]float64)}
}

func (b *Batch) load(block int) ([]float64, error) {
	if data, ok := b.blocks[block]; ok {
		return data, nil
	}
	data, err := b.store.ReadTile(block)
	if err != nil {
		return nil, err
	}
	b.reads++
	b.blocks[block] = data
	return data, nil
}

// Add accumulates a delta into the coefficient at coords.
func (b *Batch) Add(coords []int, delta float64) error {
	block, slot := b.store.Tiling().Locate(coords)
	data, err := b.load(block)
	if err != nil {
		return err
	}
	data[slot] += delta
	return nil
}

// Set overwrites the coefficient at coords.
func (b *Batch) Set(coords []int, v float64) error {
	block, slot := b.store.Tiling().Locate(coords)
	data, err := b.load(block)
	if err != nil {
		return err
	}
	data[slot] = v
	return nil
}

// Touched returns the number of distinct blocks in the batch so far.
func (b *Batch) Touched() int { return len(b.blocks) }

// Flush writes every touched block back in ascending id order (so the
// physical write sequence is deterministic, which crash-recovery tests
// rely on) and resets the batch.
func (b *Batch) Flush() error {
	ids := make([]int, 0, len(b.blocks))
	for id := range b.blocks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	data := make([][]float64, len(ids))
	for i, id := range ids {
		data[i] = b.blocks[id]
	}
	if err := b.store.WriteTiles(ids, data); err != nil {
		return err
	}
	b.blocks = make(map[int][]float64)
	return nil
}
