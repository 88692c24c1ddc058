package shiftsplit

import (
	"fmt"
	"slices"

	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
	"github.com/shiftsplit/shiftsplit/internal/transform"
)

// replace is the one whole-domain write: Materialize and TransformChunked
// both run the chunked engine of the store's form over src, with chunks of
// edge 2^chunkBits, as a healing write. The engine writes each block once,
// at its last contribution, and reads none, so the call never reads what
// the store held. Its sink leaves a block whose contributions are all zero
// unwritten, and every such block is then written as a zero frame, so the
// store ends holding src's transform and nothing of what it held before. A
// handle CreateStore made that no write has run on skips the zero frames:
// its blocks already read as zeros, and not writing them is the paper's
// sparse-data saving (§5.1).
func (s *Store) replace(src *Array, chunkBits, workers int) error {
	if !slices.Equal(src.Shape(), s.opts.Shape) {
		return fmt.Errorf("shiftsplit: array shape %v, store shape %v", src.Shape(), s.opts.Shape)
	}
	engine := transform.ChunkedStandard
	if s.opts.Form == NonStandard {
		engine = transform.ChunkedNonStandard
	}
	return s.write(true, func(ts *tile.Store) error {
		v := &blankView{BlockStore: ts.Blocks(), written: make([]bool, s.tiling.NumBlocks())}
		view, err := tile.NewStore(v, s.tiling)
		if err != nil {
			return err
		}
		if _, err := engine(src, chunkBits, view, workers); err != nil || s.blank {
			return err
		}
		return v.fill()
	})
}

// blankView is the write view of a whole-domain write: it records which
// blocks the write has stored.
type blankView struct {
	storage.BlockStore
	written []bool
}

func (v *blankView) WriteBlock(id int, data []float64) error {
	//shiftsplitvet:ignore journalwrite -- the view forwards into the batch Store.write commits
	if err := v.BlockStore.WriteBlock(id, data); err != nil {
		return err
	}
	v.written[id] = true
	return nil
}

func (v *blankView) WriteBlocks(ids []int, data [][]float64) error {
	if err := storage.WriteBlocksOf(v.BlockStore, ids, data); err != nil {
		return err
	}
	for _, id := range ids {
		v.written[id] = true
	}
	return nil
}

// fill writes a zero frame to every block not written yet, in ascending
// order as one vectored write. Every block store copies what it is given,
// so the frames share one zero block.
func (v *blankView) fill() error {
	zero := make([]float64, v.BlockSize())
	var ids []int
	var frames [][]float64
	for id, w := range v.written {
		if !w {
			ids, frames = append(ids, id), append(frames, zero)
		}
	}
	return storage.WriteBlocksOf(v.BlockStore, ids, frames)
}
