package appender

import (
	"fmt"

	"github.com/shiftsplit/shiftsplit/internal/bitutil"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/query"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
	"github.com/shiftsplit/shiftsplit/internal/wavelet"
)

// NonStd maintains a d-dimensional dataset growing along its last (time)
// dimension under the non-standard decomposition. The paper's construction
// (§5.2–5.3, Result 5) views such data as a sequence of cubic hypercubes of
// edge N, each decomposed on its own, plus a one-dimensional Haar tree over
// the hypercube averages whose growth is handled by the standard appending
// machinery. Appends therefore never re-touch old hypercubes: a new
// hypercube costs its own tiles plus an O(log T) update of the averages
// tree (with the occasional 1-d expansion).
type NonStd struct {
	n, d, b int // hypercube edge 2^n, dimensionality, tile bits
	device  storage.BlockStore
	count   *storage.Counting
	tiling  *tile.NonStandard
	stores  []*tile.Store // one view per stored hypercube
	avgs    *Appender     // 1-d tree over hypercube averages
}

// NewNonStd creates an empty maintainer for hypercubes of edge 2^n in d
// dimensions (the last one being time), tiled with block edge 2^b.
func NewNonStd(n, d, b int) (*NonStd, error) {
	if d < 1 || n < 0 || b < 1 {
		return nil, fmt.Errorf("appender: NewNonStd(%d, %d, %d)", n, d, b)
	}
	tiling := tile.NewNonStandard(n, d, b)
	device := storage.NewMemStore(tiling.BlockSize())
	avgs, err := New([]int{1}, b)
	if err != nil {
		return nil, err
	}
	return &NonStd{
		n: n, d: d, b: b,
		device: device,
		count:  storage.NewCounting(device),
		tiling: tiling,
		avgs:   avgs,
	}, nil
}

// Hypercubes returns how many hypercubes have been appended.
func (a *NonStd) Hypercubes() int { return len(a.stores) }

// Shape returns the current data extents: N in every dimension except time,
// which is N * Hypercubes().
func (a *NonStd) Shape() []int {
	shape := make([]int, a.d)
	for i := range shape {
		shape[i] = 1 << uint(a.n)
	}
	shape[a.d-1] *= bitutil.Max(len(a.stores), 1)
	return shape
}

// TotalIO returns the cumulative block I/O across hypercube writes and the
// averages tree.
func (a *NonStd) TotalIO() storage.Stats {
	st := a.count.Stats()
	at := a.avgs.TotalIO()
	return storage.Stats{Reads: st.Reads + at.Reads, Writes: st.Writes + at.Writes}
}

// Append stores the next hypercube (a cubic array of edge 2^n covering the
// next N time steps) and folds its average into the 1-d averages tree.
func (a *NonStd) Append(cube *ndarray.Array) error {
	if cube.Dims() != a.d {
		return fmt.Errorf("appender: hypercube has %d dims, want %d", cube.Dims(), a.d)
	}
	for t := 0; t < a.d; t++ {
		if cube.Extent(t) != 1<<uint(a.n) {
			return fmt.Errorf("appender: hypercube shape %v, want edge %d", cube.Shape(), 1<<uint(a.n))
		}
	}
	hat := wavelet.TransformNonStandard(cube)
	view := storage.NewOffset(a.count, len(a.stores)*a.tiling.NumBlocks())
	st, err := tile.NewStore(view, a.tiling)
	if err != nil {
		return err
	}
	if err := tile.WriteArray(st, hat); err != nil {
		return err
	}
	a.stores = append(a.stores, st)
	origin := make([]int, a.d)
	avgSlab := ndarray.FromSlice([]float64{hat.At(origin...)}, 1)
	if _, err := a.avgs.Append(0, avgSlab); err != nil {
		return err
	}
	return nil
}

// PointAt reconstructs one cell; time is the global index along the last
// dimension.
func (a *NonStd) PointAt(coords []int) (float64, error) {
	if len(coords) != a.d {
		return 0, fmt.Errorf("appender: point %v for %d dims", coords, a.d)
	}
	edge := 1 << uint(a.n)
	h := coords[a.d-1] / edge
	if h >= len(a.stores) || coords[a.d-1] < 0 {
		return 0, fmt.Errorf("appender: time %d beyond stored data", coords[a.d-1])
	}
	local := append([]int(nil), coords[:a.d-1]...)
	local = append(local, coords[a.d-1]%edge)
	v, _, err := query.PointViaRootPathNonStandard(a.stores[h], local)
	return v, err
}

// RangeSum evaluates the sum over the half-open box [start, start+shape),
// with the time dimension indexed globally. Whole hypercubes fully covered
// by a spatially complete box are answered from the averages tree; the rest
// descend the per-hypercube quadtrees.
func (a *NonStd) RangeSum(start, shape []int) (float64, error) {
	if len(start) != a.d || len(shape) != a.d {
		return 0, fmt.Errorf("appender: box %v+%v for %d dims", start, shape, a.d)
	}
	edge := 1 << uint(a.n)
	spatialFull := true
	for t := 0; t < a.d-1; t++ {
		if start[t] != 0 || shape[t] != edge {
			spatialFull = false
		}
	}
	t0, t1 := start[a.d-1], start[a.d-1]+shape[a.d-1] // [t0, t1)
	if t0 < 0 || t1 > edge*len(a.stores) || t1 < t0 {
		return 0, fmt.Errorf("appender: time range [%d,%d) out of bounds", t0, t1)
	}
	sum := 0.0
	volume := bitutil.IntPow(edge, a.d)
	for h := t0 / edge; h*edge < t1 && h < len(a.stores); h++ {
		lo := bitutil.Max(t0, h*edge) - h*edge
		hi := bitutil.Min(t1, (h+1)*edge) - h*edge
		if spatialFull && lo == 0 && hi == edge {
			// Whole hypercube: its average times its volume, read from the
			// averages tree's transform (one coefficient walk).
			avgs, err := a.avgs.Reconstruct()
			if err != nil {
				return 0, err
			}
			sum += avgs.At(h) * float64(volume)
			continue
		}
		s := append(append([]int(nil), start[:a.d-1]...), lo)
		sh := append(append([]int(nil), shape[:a.d-1]...), hi-lo)
		if !spatialFull {
			// General box: clamp spatial extents as given.
			copy(s[:a.d-1], start[:a.d-1])
			copy(sh[:a.d-1], shape[:a.d-1])
		} else {
			for t := 0; t < a.d-1; t++ {
				s[t], sh[t] = 0, edge
			}
		}
		part, _, err := query.RangeSumNonStandard(a.stores[h], s, sh)
		if err != nil {
			return 0, err
		}
		sum += part
	}
	return sum, nil
}

// Reconstruct reads everything back for verification.
func (a *NonStd) Reconstruct() (*ndarray.Array, error) {
	shape := a.Shape()
	out := ndarray.New(shape...)
	edge := 1 << uint(a.n)
	scratch := wavelet.NewScratch()
	for h, st := range a.stores {
		cube, err := tile.ReadArray(st, a.tiling.Domain())
		if err != nil {
			return nil, err
		}
		wavelet.InverseNonStandardInPlace(cube, scratch)
		pastePos := make([]int, a.d)
		pastePos[a.d-1] = h * edge
		out.SubPaste(cube, pastePos)
	}
	return out, nil
}
