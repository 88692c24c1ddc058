package experiments

import (
	"fmt"

	"github.com/shiftsplit/shiftsplit/internal/appender"
	"github.com/shiftsplit/shiftsplit/internal/dataset"
)

// AppendFormsConfig parametrizes the appender-form comparison.
type AppendFormsConfig struct {
	Edge     int // spatial grid edge and hypercube time extent (power of two)
	Periods  int // appends
	TileBits int
	Seed     int64
}

// DefaultAppendForms uses 8x8x8 hypercubes.
func DefaultAppendForms() AppendFormsConfig {
	return AppendFormsConfig{Edge: 8, Periods: 16, TileBits: 2, Seed: 13}
}

// AppendForms contrasts the two appending strategies of §5.2: the
// standard-form appender against the non-standard hypercube-sequence
// appender (the Result-5 construction), which never touches old data and
// pays only O(log T) beyond the new hypercube's own tiles. The standard
// form expands in place, rewriting the top band along time; the last
// column prices its doublings as the paper's layout does — the whole
// transform rewritten, the Figure-13 jumps.
func AppendForms(c AppendFormsConfig) (*Table, error) {
	e := c.Edge
	std, err := appender.New([]int{e, e, e}, c.TileBits)
	if err != nil {
		return nil, err
	}
	non, err := appender.NewNonStd(log2of(e), 3, c.TileBits)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Appending forms (§5.2) — per-append block I/O; %dx%dx%d per period",
			e, e, e),
		Columns: []string{"period", "standard form", "expanded", "non-standard form", "standard form, full rewrite (model)"},
	}
	var prevNon int64
	for p := 0; p < c.Periods; p++ {
		cube := dataset.Precipitation([]int{e, e, e}, c.Seed+int64(p))
		before := std.Shape()
		stStats, err := std.Append(2, cube)
		if err != nil {
			return nil, err
		}
		if err := non.Append(cube); err != nil {
			return nil, err
		}
		nonTotal := non.TotalIO().Total()
		t.Add(p+1,
			stStats.MergeIO.Total()+stStats.ExpansionIO.Total(),
			stStats.Expansions > 0,
			nonTotal-prevNon,
			stStats.MergeIO.Total()+rewriteModel(before, 2, std.Shape()[2], c.TileBits).Total())
		prevNon = nonTotal
	}
	t.Notes = append(t.Notes,
		"the non-standard hypercube sequence stays flat because old hypercubes are never rewritten; the standard form under the paper's full rewrite pays growing expansion jumps",
		"in place, a standard-form doubling rewrites only the top band along time, so the standard form's expansion periods cost about what its routine ones do; what still grows with history is its merge, whose path to the root lengthens by a level per doubling")
	return t, nil
}

func log2of(x int) int {
	n := 0
	for 1<<uint(n) < x {
		n++
	}
	return n
}
