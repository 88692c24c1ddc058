package shiftsplit

import "fmt"

// The operations below exploit the linearity of the Haar transform at store
// granularity: transforms of two datasets over the same domain combine
// coefficient-wise (and therefore block-wise), with no reconstruction and
// one read-modify-write pass over the blocks.

// AddStore adds other's dataset into s (cell-wise), streaming block by
// block. Both stores must share shape, form, and tiling geometry. Redundant
// scaling slots combine linearly too, so valid slots stay valid; adding a
// store whose slots are stale into one whose slots are valid is refused,
// since the sum's slots would be wrong.
func (s *Store) AddStore(other *Store) error {
	return s.combineStore(other, 1)
}

// SubtractStore subtracts other's dataset from s.
func (s *Store) SubtractStore(other *Store) error {
	return s.combineStore(other, -1)
}

func (s *Store) combineStore(other *Store, sign float64) error {
	if s.opts.Form != other.opts.Form {
		return fmt.Errorf("shiftsplit: form mismatch (%v vs %v)", s.opts.Form, other.opts.Form)
	}
	if len(s.opts.Shape) != len(other.opts.Shape) {
		return fmt.Errorf("shiftsplit: shape mismatch (%v vs %v)", s.opts.Shape, other.opts.Shape)
	}
	for i := range s.opts.Shape {
		if s.opts.Shape[i] != other.opts.Shape[i] {
			return fmt.Errorf("shiftsplit: shape mismatch (%v vs %v)", s.opts.Shape, other.opts.Shape)
		}
	}
	if s.opts.TileBits != other.opts.TileBits {
		return fmt.Errorf("shiftsplit: tile geometry mismatch (%d vs %d bits)", s.opts.TileBits, other.opts.TileBits)
	}
	if s.slotsValid() && !other.slotsValid() {
		return fmt.Errorf("shiftsplit: the other store's scaling slots are stale; Materialize it first")
	}
	for block := 0; block < s.tiling.NumBlocks(); block++ {
		mine, err := s.store.ReadTile(block)
		if err != nil {
			return err
		}
		theirs, err := other.store.ReadTile(block)
		if err != nil {
			return err
		}
		changed := false
		for i := range mine {
			if theirs[i] != 0 {
				mine[i] += sign * theirs[i]
				changed = true
			}
		}
		if !changed {
			continue
		}
		if err := s.store.WriteTile(block, mine); err != nil {
			return err
		}
	}
	return nil
}

// Scale multiplies every data value by factor, wavelet-domain only (the
// transform is linear, so scaling every block scales the data).
func (s *Store) Scale(factor float64) error {
	for block := 0; block < s.tiling.NumBlocks(); block++ {
		data, err := s.store.ReadTile(block)
		if err != nil {
			return err
		}
		nonZero := false
		for i := range data {
			if data[i] != 0 {
				data[i] *= factor
				nonZero = true
			}
		}
		if !nonZero {
			continue
		}
		if err := s.store.WriteTile(block, data); err != nil {
			return err
		}
	}
	return nil
}

// RollupFromStore computes the transform of the dataset summed over
// dimension dim from a snapshot, reading only the transform's index-0 face
// along dim (Snapshot.OLAP's rollup), not the whole store. Standard form
// only. It returns the reduced transform and the number of blocks read.
func (s *Store) RollupFromStore(dim int) (*Array, int, error) {
	snap := s.AcquireSnapshot()
	defer snap.Release()
	data, blocks, err := snap.OLAP(OLAPOp{Op: "rollup", Dim: dim})
	if err != nil {
		return nil, 0, err
	}
	return Transform(data, Standard), blocks, nil
}
