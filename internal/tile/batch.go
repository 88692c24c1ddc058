package tile

import (
	"sort"

	"github.com/shiftsplit/shiftsplit/internal/ndarray"
)

// BlockCapacities returns, for every block of the tiling, how many real
// transform coefficients of an array with the given shape map into it. Slots
// holding redundant scaling coefficients (slot 0 of non-root tiles) and
// unused slots of shallow tiles are not counted; an engine that writes the
// scaling slots too counts them on top.
func BlockCapacities(shape []int, t Tiling) map[int]int {
	caps := make(map[int]int)
	if nt, ok := t.(*NonStandard); ok {
		// A tile of height h holds its quadtree's 2^(d*h) - 1 details; the
		// top tile also holds the overall average.
		for block := 0; block < nt.NumBlocks(); block++ {
			caps[block] = 1<<uint(nt.d*nt.TileHeight(block)) - 1
		}
		caps[0]++
		return caps
	}
	coords := make([]int, len(shape))
	var rec func(dim int)
	rec = func(dim int) {
		if dim == len(shape) {
			block, _ := t.Locate(coords)
			caps[block]++
			return
		}
		for v := 0; v < shape[dim]; v++ {
			coords[dim] = v
			rec(dim + 1)
		}
	}
	rec(0)
	return caps
}

// OnceWriter writes final (write-once) coefficient values through a tiled
// store, buffering each block in memory until every real coefficient slot
// of that block has been set and then writing it exactly once. This is the
// I/O discipline of the z-ordered non-standard transformation (Result 2):
// every output block costs a single write and no reads.
type OnceWriter struct {
	store      *Store
	capacities map[int]int
	pending    map[int]*onceBlock
	// Completed blocks recycle their buffers here: every BlockStore copies
	// written data before returning, so once WriteTile succeeds the slice
	// (zeroed) and the onceBlock header can back the next block. The
	// steady-state footprint is then the pending high-water mark, not one
	// allocation per written block.
	freeData [][]float64
	freeOB   []*onceBlock
}

type onceBlock struct {
	data      []float64 // nil until the first non-zero value arrives
	remaining int
}

// NewOnceWriter creates a write-once sink; capacities must come from
// BlockCapacities for the same shape and tiling.
func NewOnceWriter(st *Store, capacities map[int]int) *OnceWriter {
	return &OnceWriter{
		store:      st,
		capacities: capacities,
		pending:    make(map[int]*onceBlock),
	}
}

// open returns the pending block header, creating one (from the freelist
// when possible) on first touch.
func (w *OnceWriter) open(block int) *onceBlock {
	ob, ok := w.pending[block]
	if !ok {
		if n := len(w.freeOB); n > 0 {
			ob = w.freeOB[n-1]
			w.freeOB = w.freeOB[:n-1]
		} else {
			ob = &onceBlock{}
		}
		ob.data, ob.remaining = nil, w.capacities[block]
		w.pending[block] = ob
	}
	return ob
}

// materialize gives the pending block a zeroed buffer.
func (w *OnceWriter) materialize(ob *onceBlock) {
	if n := len(w.freeData); n > 0 {
		ob.data = w.freeData[n-1]
		w.freeData = w.freeData[:n-1]
	} else {
		ob.data = make([]float64, w.store.Tiling().BlockSize())
	}
}

// complete writes a finished block and recycles its storage.
func (w *OnceWriter) complete(block int, ob *onceBlock) error {
	delete(w.pending, block)
	data := ob.data
	ob.data = nil
	w.freeOB = append(w.freeOB, ob)
	if data == nil {
		return nil // all-zero block: nothing to store
	}
	err := w.store.WriteTile(block, data)
	clear(data)
	w.freeData = append(w.freeData, data)
	return err
}

// Set records a final coefficient value, flushing its block if complete.
// Blocks that turn out to be entirely zero are never written at all —
// unwritten blocks read back as zeros, which is how the engines inherit the
// paper's sparse-data savings (§5.1) for free.
func (w *OnceWriter) Set(coords []int, v float64) error {
	block, slot := w.store.Tiling().Locate(coords)
	return w.SetSlot(block, slot, v)
}

// SetSlot is Set for a value located by block and slot, such as a tile's
// scaling slot, which no coefficient coordinates name.
func (w *OnceWriter) SetSlot(block, slot int, v float64) error {
	ob := w.open(block)
	if v != 0 {
		if ob.data == nil {
			w.materialize(ob)
		}
		ob.data[slot] = v
	}
	ob.remaining--
	if ob.remaining == 0 {
		return w.complete(block, ob)
	}
	return nil
}

// MergeBucket folds one chunk's bucketed write-once values into the writer:
// semantically identical to calling Set once per contributed coefficient
// (deltas holds final values by slot, touches how many were contributed),
// but without re-deriving (block, slot) per coefficient. Zero values leave
// the block unmaterialized exactly as Set(coords, 0) does, so all-zero
// blocks are still never written.
func (w *OnceWriter) MergeBucket(block int, deltas []float64, touches int) error {
	if touches == 0 {
		return nil
	}
	ob := w.open(block)
	for slot, v := range deltas {
		if v == 0 {
			continue
		}
		if ob.data == nil {
			w.materialize(ob)
		}
		ob.data[slot] = v
	}
	ob.remaining -= touches
	if ob.remaining <= 0 {
		return w.complete(block, ob)
	}
	return nil
}

// Pending returns the number of blocks still buffered (the engine's
// memory footprint beyond the chunk itself).
func (w *OnceWriter) Pending() int { return len(w.pending) }

// Flush writes any incomplete blocks (normally only blocks whose unset
// slots are reserved scaling slots) in ascending id order. All-zero blocks
// are dropped.
func (w *OnceWriter) Flush() error {
	ids := make([]int, 0, len(w.pending))
	for id := range w.pending {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var outIDs []int
	var outData [][]float64
	for _, id := range ids {
		ob := w.pending[id]
		delete(w.pending, id)
		if ob.data == nil {
			continue // all-zero block: nothing to store
		}
		outIDs = append(outIDs, id)
		outData = append(outData, ob.data)
	}
	return w.store.WriteTiles(outIDs, outData)
}

// WriteArray stores a full in-memory transform through a tiled store with
// one write per block — the cost of sequentially dumping a transform.
func WriteArray(st *Store, hat *ndarray.Array) error {
	caps := BlockCapacities(hat.Shape(), st.Tiling())
	w := NewOnceWriter(st, caps)
	var err error
	hat.Each(func(coords []int, v float64) {
		if err != nil {
			return
		}
		err = w.Set(coords, v)
	})
	if err != nil {
		return err
	}
	return w.Flush()
}
