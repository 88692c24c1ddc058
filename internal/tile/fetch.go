package tile

import (
	"fmt"
	"slices"

	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// FetchSet is the fetch step of every coefficient read: a plan names the
// blocks it needs (Want), one vectored read fetches them (Fetch), and the
// accumulate pass looks each one up by id (Frame). Blocks are fetched sorted
// and distinct, so consecutive tiles coalesce into one device request and
// Len is the number of distinct blocks read — the quantity the paper's query
// and extraction costs count. The zero value is ready; Reset starts the next
// plan and keeps the frames' memory.
type FetchSet struct {
	// blocks holds the ids as the plan names them (duplicates welcome),
	// sorted and distinct once fetched; frames[i] holds blocks[i] and is cut
	// from slab.
	blocks []int
	frames [][]float64
	slab   []float64
	hit    int // index of the last frame looked up
}

// Reset empties the plan.
func (f *FetchSet) Reset() {
	f.blocks = f.blocks[:0]
	f.hit = 0
}

// Trim drops a slab of more than max float64s, so a pooled set does not
// pin one huge plan's high-water mark.
func (f *FetchSet) Trim(max int) {
	if cap(f.slab) > max {
		f.slab, f.frames = nil, nil
	}
}

// Want adds a block to the plan. Plans walk tiles in runs, so dropping
// immediate repeats keeps the list short; Fetch removes the rest.
func (f *FetchSet) Want(block int) {
	if n := len(f.blocks); n == 0 || f.blocks[n-1] != block {
		f.blocks = append(f.blocks, block)
	}
}

// Fetch reads the wanted blocks with one vectored read, in ascending id
// order so consecutive tiles coalesce into one device request. With a
// lease, a frame the stack can lend (a serve cache hit) is the lender's own
// block instead of a copy in the slab, pinned under l until l.Return: the
// frames are then read-only. A nil lease copies every block.
func (f *FetchSet) Fetch(st *Store, l *storage.Lease) error {
	slices.Sort(f.blocks)
	f.blocks = slices.Compact(f.blocks)
	n, size := len(f.blocks), st.Tiling().BlockSize()
	f.slab = slices.Grow(f.slab[:0], n*size)[:n*size]
	f.frames = f.frames[:0]
	for i := 0; i < n; i++ {
		f.frames = append(f.frames, f.slab[i*size:(i+1)*size:(i+1)*size])
	}
	return storage.LendBlocksOf(st.bs, f.blocks, f.frames, l)
}

// Len returns the number of distinct blocks fetched.
func (f *FetchSet) Len() int { return len(f.blocks) }

// Frame returns the fetched contents of a block the plan asked for. Walks
// stay on a block for a run and mostly step to the next id. Asking for a
// block the plan did not name is a bug in the walk, and panics rather than
// hand back a neighbour's frame.
func (f *FetchSet) Frame(block int) []float64 {
	switch next := f.hit + 1; {
	case f.blocks[f.hit] == block:
	case next < len(f.blocks) && f.blocks[next] == block:
		f.hit = next
	default:
		i, ok := slices.BinarySearch(f.blocks, block)
		if !ok {
			panic(fmt.Sprintf("tile: FetchSet.Frame(%d): block not in the fetched plan", block))
		}
		f.hit = i
	}
	return f.frames[f.hit]
}

// ReadArray reads a whole transform of the given shape back from a tiled
// store, the inverse of WriteArray: one vectored read of every block in
// ascending id order, then each coefficient from its frame.
func ReadArray(st *Store, shape []int) (*ndarray.Array, error) {
	var f FetchSet
	for id := 0; id < st.Tiling().NumBlocks(); id++ {
		f.Want(id)
	}
	if err := f.Fetch(st, nil); err != nil {
		return nil, err
	}
	hat := ndarray.New(shape...)
	tiling, data, off := st.Tiling(), hat.Data(), 0
	hat.Each(func(coords []int, _ float64) {
		block, slot := tiling.Locate(coords)
		data[off] = f.Frame(block)[slot]
		off++
	})
	return hat, nil
}
