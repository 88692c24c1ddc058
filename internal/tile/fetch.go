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
// store, the inverse of WriteArray: vectored reads of applyGroup blocks at
// a time in ascending id order into one reused group of frames, each frame
// scattered to its coefficients' cells as it arrives, with no Locate per
// coefficient. A standard block is the cross product of its 1-d tiles'
// coefficients, tabulated once per dimension (Locate1D's inverse) and
// combined in mixed radix per row; a non-standard block is walked level by
// level, its cells at a level one run of slots per row of the tile (the
// NonStdLevel slot layout Push and At define). Other tilings are not read
// back whole.
func ReadArray(st *Store, shape []int) (*ndarray.Array, error) {
	hat := ndarray.New(shape...)
	var scatter func(block int, frame []float64)
	switch t := st.Tiling().(type) {
	case *Standard:
		scatter = standardScatter(t, hat)
	case *NonStandard:
		scatter = nonStandardScatter(t, hat)
	default:
		return nil, fmt.Errorf("tile: ReadArray of a %T tiling", t)
	}
	numBlocks, size := st.Tiling().NumBlocks(), st.Tiling().BlockSize()
	group := min(applyGroup, numBlocks)
	frames := storage.SliceFrames(make([]float64, group*size), group, size)
	ids := make([]int, group)
	for lo := 0; lo < numBlocks; lo += group {
		n := min(group, numBlocks-lo)
		for i := range ids[:n] {
			ids[i] = lo + i
		}
		if err := storage.ReadBlocksOf(st.bs, ids[:n], frames[:n]); err != nil {
			return nil, err
		}
		for i, frame := range frames[:n] {
			scatter(lo+i, frame)
		}
	}
	return hat, nil
}

// standardScatter returns ReadArray's scatter step for a standard tiling:
// per dimension, the real coefficients of every 1-d tile as (index, slot)
// pairs; a block's coefficients are their cross product, the index a
// row-major offset into hat's data and the slot a mixed-radix one.
func standardScatter(t *Standard, hat *ndarray.Array) func(int, []float64) {
	d, edge, data := t.Dims(), t.Dim(0).BlockSize(), hat.Data()
	type entry struct{ off, slot int }
	entries := make([][][]entry, d) // entries[dim][tile]
	step := 1
	for dim := d - 1; dim >= 0; dim-- {
		od := t.Dim(dim)
		entries[dim] = make([][]entry, od.NumBlocks())
		for b := range entries[dim] {
			idxs := od.TileIndices(b)
			entries[dim][b] = make([]entry, len(idxs))
			for i, idx := range idxs {
				_, slot := od.Locate1D(idx)
				entries[dim][b][i] = entry{idx * step, slot}
			}
		}
		step *= hat.Extent(dim)
	}
	rows := make([][]entry, d)
	at := make([]int, d)
	return func(block int, frame []float64) {
		for dim := range rows {
			od := t.Dim(dim)
			rows[dim] = entries[dim][block/t.Stride(dim)%od.NumBlocks()]
		}
		last := rows[d-1]
		clear(at)
		for {
			off, slot := 0, 0
			for dim, e := range rows[:d-1] {
				off += e[at[dim]].off
				slot = (slot + e[at[dim]].slot) * edge
			}
			for _, e := range last {
				data[off+e.off] = frame[slot+e.slot]
			}
			dim := d - 2
			for ; dim >= 0; dim-- {
				if at[dim]++; at[dim] < len(rows[dim]) {
					break
				}
				at[dim] = 0
			}
			if dim < 0 {
				return
			}
		}
	}
}

// nonStandardScatter returns ReadArray's scatter step for a non-standard
// tiling. A tile rooted at level j holds, at each of its levels l, the
// nodes of the 2^(j-l) cells per dimension under its root cell; the node
// of a cell's detail of subband mask sits at level l's origin slot plus
// the cell's row-major index in that grid times 2^d - 1, plus mask - 1, and
// in hat at the cell's position offset by 2^(n-l) along each dimension
// mask differences. The top tile's slot 0 is the overall average.
func nonStandardScatter(t *NonStandard, hat *ndarray.Array) func(int, []float64) {
	d, data := t.d, hat.Data()
	stride := make([]int, d) // hat's row-major strides
	for dim, step := d-1, 1; dim >= 0; dim, step = dim-1, step<<uint(t.n) {
		stride[dim] = step
	}
	pos, q := make([]int, d), make([]int, d)
	return func(block int, frame []float64) {
		if block == 0 {
			data[0] = frame[0]
		}
		j := t.rootInto(block, pos)
		for l := j; l > j-t.TileHeight(block); l-- {
			lvl := t.levels[l-1]
			k := lvl.depth()
			edge, base := 1<<uint(k), 1<<uint(t.n-l)
			for mask := 1; mask < 1<<uint(d); mask++ {
				corner := 0 // hat offset of the tile's lowest cell's detail
				for dim, p := range pos {
					c := p << uint(k)
					if mask>>uint(dim)&1 == 1 {
						c += base
					}
					corner += c * stride[dim]
				}
				slot := lvl.origin() + mask - 1
				clear(q)
				for {
					off := corner
					for dim, c := range q[:d-1] {
						off += c * stride[dim]
					}
					for x := 0; x < edge; x++ {
						data[off+x] = frame[slot]
						slot += lvl.details
					}
					dim := d - 2
					for ; dim >= 0; dim-- {
						if q[dim]++; q[dim] < edge {
							break
						}
						q[dim] = 0
					}
					if dim < 0 {
						break
					}
				}
			}
		}
	}
}
