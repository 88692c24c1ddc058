package shiftsplit

import "github.com/shiftsplit/shiftsplit/internal/tile"

// The operations below exploit the linearity of the Haar transform at store
// granularity, with no reconstruction: scaling every coefficient scales the
// data, and a roll-up reads one face of the transform.

// Scale multiplies every data value by factor, wavelet-domain only (the
// transform is linear, so scaling every block scales the data, its scaling
// slots included), as one committed write.
func (s *Store) Scale(factor float64) error {
	return s.write(false, func(ts *tile.Store) error {
		for block := 0; block < s.tiling.NumBlocks(); block++ {
			data, err := ts.ReadTile(block)
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
			if err := ts.WriteTile(block, data); err != nil {
				return err
			}
		}
		return nil
	})
}

// RollupFromStore computes the transform of the dataset summed over
// dimension dim from a snapshot, reading only the transform's index-0 face
// along dim (Snapshot.OLAP's rollup), not the whole store. Standard form
// only. It returns the reduced transform and the number of blocks read.
func (s *Store) RollupFromStore(dim int) (*Array, int, error) {
	var data *Array
	var blocks int
	err := s.WithSnapshot(func(sn *Snapshot) (err error) {
		data, blocks, err = sn.OLAP(OLAPOp{Op: "rollup", Dim: dim})
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	return Transform(data, Standard), blocks, nil
}
