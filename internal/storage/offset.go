package storage

import "fmt"

// Offset exposes a window of a larger BlockStore with block IDs shifted by
// a fixed base. It lets several logical stores (e.g. one tiled transform
// per hypercube of a growing dataset) share one device and one I/O counter.
type Offset struct {
	inner BlockStore
	base  int
}

// NewOffset creates a view whose block 0 is inner's block base.
func NewOffset(inner BlockStore, base int) *Offset {
	if base < 0 {
		panic(fmt.Sprintf("storage: negative offset %d", base))
	}
	return &Offset{inner: inner, base: base}
}

// BlockSize returns the inner store's block size.
func (o *Offset) BlockSize() int { return o.inner.BlockSize() }

// ReadBlock delegates with the base added.
func (o *Offset) ReadBlock(id int, buf []float64) error {
	if id < 0 {
		return fmt.Errorf("storage: negative block id %d", id)
	}
	return o.inner.ReadBlock(o.base+id, buf)
}

// WriteBlock delegates with the base added.
func (o *Offset) WriteBlock(id int, data []float64) error {
	if id < 0 {
		return fmt.Errorf("storage: negative block id %d", id)
	}
	return o.inner.WriteBlock(o.base+id, data)
}

// shift returns ids with the base added; consecutive runs stay consecutive,
// so the inner store coalesces exactly as it would for the raw ids.
func (o *Offset) shift(ids []int) ([]int, error) {
	shifted := make([]int, len(ids))
	for i, id := range ids {
		if id < 0 {
			return nil, fmt.Errorf("storage: negative block id %d", id)
		}
		shifted[i] = o.base + id
	}
	return shifted, nil
}

// ReadBlocks delegates the batch with the base added to every id.
func (o *Offset) ReadBlocks(ids []int, bufs [][]float64) error {
	shifted, err := o.shift(ids)
	if err != nil {
		return err
	}
	return ReadBlocksOf(o.inner, shifted, bufs)
}

// WriteBlocks delegates the batch with the base added to every id.
func (o *Offset) WriteBlocks(ids []int, data [][]float64) error {
	shifted, err := o.shift(ids)
	if err != nil {
		return err
	}
	return WriteBlocksOf(o.inner, shifted, data)
}

// Close is a no-op: the shared inner store outlives its views.
func (o *Offset) Close() error { return nil }
