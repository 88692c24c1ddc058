package experiments

import (
	"fmt"

	"github.com/shiftsplit/shiftsplit/internal/appender"
	"github.com/shiftsplit/shiftsplit/internal/bitutil"
	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
)

// Fig13Config parametrizes the §6.2 appending experiment.
type Fig13Config struct {
	Lat, Lon  int   // spatial grid (paper: 8x8)
	DaysMonth int   // slab length along time per append (paper: 32)
	Months    int   // how many appends
	TileBits  []int // per-dimension tile edge exponents (block = 2^(3b))
	Seed      int64
}

// DefaultFig13 mirrors the paper's PRECIPITATION geometry.
func DefaultFig13() Fig13Config {
	return Fig13Config{Lat: 8, Lon: 8, DaysMonth: 32, Months: 24, TileBits: []int{1, 2, 3}, Seed: 4}
}

// Fig13 reproduces Figure 13: per-append block I/O over time as monthly
// PRECIPITATION slabs are appended, for several tile sizes. The measured
// columns expand in place (the top band along time is rewritten); the
// modeled ones price each doubling as the paper's layout does, every old
// block read and every new one written, which is where its jumps come from.
func Fig13(c Fig13Config) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Figure 13 — appending I/O (blocks) per month; %dx%dx%d/month PRECIPITATION",
			c.Lat, c.Lon, c.DaysMonth),
		Columns: []string{"month"},
	}
	for _, b := range c.TileBits {
		t.Columns = append(t.Columns, fmt.Sprintf("tile=%d coefs", bitutil.IntPow(1<<uint(b), 3)))
	}
	for _, b := range c.TileBits {
		t.Columns = append(t.Columns, fmt.Sprintf("tile=%d, full rewrite (model)", bitutil.IntPow(1<<uint(b), 3)))
	}
	t.Columns = append(t.Columns, "expanded")

	full := dataset.Precipitation([]int{c.Lat, c.Lon, c.DaysMonth * c.Months}, c.Seed)
	apps := make([]*appender.Appender, len(c.TileBits))
	for i, b := range c.TileBits {
		a, err := appender.New([]int{c.Lat, c.Lon, c.DaysMonth}, b)
		if err != nil {
			return nil, err
		}
		apps[i] = a
	}
	for mo := 0; mo < c.Months; mo++ {
		slab := full.SubCopy([]int{0, 0, mo * c.DaysMonth}, []int{c.Lat, c.Lon, c.DaysMonth})
		row := []interface{}{mo + 1}
		var modeled []interface{}
		expanded := false
		for i, a := range apps {
			before := a.Shape()
			st, err := a.Append(2, slab)
			if err != nil {
				return nil, err
			}
			row = append(row, st.ExpansionIO.Total()+st.MergeIO.Total())
			modeled = append(modeled, st.MergeIO.Total()+rewriteModel(before, 2, a.Shape()[2], c.TileBits[i]).Total())
			if st.Expansions > 0 {
				expanded = true
			}
		}
		row = append(append(row, modeled...), expanded)
		t.Add(row...)
	}
	t.Notes = append(t.Notes,
		"expected shape: flat monthly cost with jumps at domain doublings; larger tiles cost fewer blocks (paper Figure 13) — the jumps are in the modeled full-rewrite columns",
		"measured: tiles keep their block ids as the time dimension doubles (growth order, time the outermost radix), so a doubling reads and rewrites only the top-band tiles along time times the 8x8 cross-section, and the expansion months stay level with the rest")
	return t, nil
}

// rewriteModel is what the paper's expansion spends growing dimension dim
// of a standard-form domain of the given shape, doubling by doubling, to
// the given extent: every block of the old layout read and every block of
// the new one written. It is arithmetic on the two tilings, not a second
// expansion.
func rewriteModel(shape []int, dim, extent, b int) storage.Stats {
	ns := make([]int, len(shape))
	for t, e := range shape {
		ns[t] = bitutil.Log2(e)
	}
	var io storage.Stats
	for ; 1<<uint(ns[dim]) < extent; ns[dim]++ {
		old := tile.NewStandard(ns, b)
		io.Reads += int64(old.NumBlocks())
		io.Writes += int64(old.Grown(dim).NumBlocks())
	}
	return io
}
