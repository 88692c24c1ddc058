package tile

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/core"
	"github.com/shiftsplit/shiftsplit/internal/dyadic"
	"github.com/shiftsplit/shiftsplit/internal/haar"
)

// refEntry is one entry of a dimension's list as the reference builds it:
// a coefficient index, or (leaf paths) the scaling slot of 1-d tile tile,
// with its weight and source tag.
type refEntry struct {
	idx, src, tile int
	scaling        bool
	w              float64
}

// planCase builds one plan along every dimension of a tiling and the
// same lists for the reference.
type planCase struct {
	name  string
	build func(p *Plan, t, n int, rng *rand.Rand) []refEntry
	// generic reports whether the constructor serves tilings other than
	// Standard.
	generic bool
}

var planCases = []planCase{
	{"RangeSum", func(p *Plan, _, n int, rng *rand.Rand) []refEntry {
		l := rng.Intn(1 << uint(n))
		r := l + rng.Intn(1<<uint(n)-l)
		p.RangeSum(n, l, r)
		var out []refEntry
		for i, c := range haar.RangeSumCoefs(n, l, r) {
			out = append(out, refEntry{idx: c.Index, src: i, w: c.Weight})
		}
		return out
	}, true},
	{"LeafPath", func(p *Plan, t, n int, rng *rand.Rand) []refEntry {
		x := rng.Intn(1 << uint(n))
		p.LeafPath(x)
		od := p.std.Dim(t)
		if n == 0 {
			return []refEntry{{w: 1}} // the top tile's slot 0 is coefficient 0
		}
		leaf, _ := od.Locate1D(haar.Index(n, 1, x/2))
		out := []refEntry{{tile: leaf, scaling: true, w: 1}}
		jr, _ := od.RootOf(leaf)
		for level := jr; level >= 1; level-- {
			w := 1.0
			if x>>uint(level-1)&1 == 1 {
				w = -1
			}
			out = append(out, refEntry{idx: haar.Index(n, level, x>>uint(level)), src: len(out), w: w})
		}
		return out
	}, false},
	{"Union", func(p *Plan, _, n int, rng *rand.Rand) []refEntry {
		s := rng.Intn(1 << uint(n))
		e := s + 1 + rng.Intn(1<<uint(n)-s)
		var idx []int
		for _, iv := range dyadic.Decompose(s, e) {
			for _, c := range core.ScalingPath1D(n, iv.Level, iv.Pos) {
				idx = append(idx, c.Index)
			}
			for i := 1; i < iv.Len(); i++ {
				idx = append(idx, core.ShiftIndex(n, iv.Level, iv.Pos, i))
			}
		}
		slices.Sort(idx)
		idx = slices.Compact(idx)
		p.Union(idx)
		var out []refEntry
		for i, x := range idx {
			out = append(out, refEntry{idx: x, src: i, w: 1})
		}
		return out
	}, true},
	{"Embed", func(p *Plan, _, n int, rng *rand.Rand) []refEntry {
		m := rng.Intn(n + 1)
		k := rng.Intn(1 << uint(n-m))
		p.Embed(n, m, k)
		var out []refEntry
		for src, targets := range core.EmbedTargets1D(n, m, k) {
			for _, tt := range targets {
				out = append(out, refEntry{idx: tt.Index, src: src, w: tt.Weight})
			}
		}
		return out
	}, true},
	{"ScalingPath", func(p *Plan, t, n int, rng *rand.Rand) []refEntry {
		od := p.std.Dim(t)
		if od.NumBlocks() == 1 {
			p.Stay(od.top) // its slot 0 is coefficient 0
			return []refEntry{{w: 1}}
		}
		block := rng.Intn(od.NumBlocks() - 1)
		if block >= od.top {
			block++
		}
		p.ScalingPath(block)
		j, k := od.RootOf(block)
		var out []refEntry
		for i, c := range core.ScalingPath1D(n, j, k) {
			out = append(out, refEntry{idx: c.Index, src: i, w: c.Weight})
		}
		return out
	}, false},
}

// planGeometries are the standard tilings the plan is checked on.
var planGeometries = []struct {
	shape []int
	b     int
}{
	{[]int{128}, 3}, {[]int{64, 16}, 2}, {[]int{16, 8, 32}, 2}, {[]int{1, 8}, 2}, {[]int{32, 128}, 3},
}

// TestPlanMatchesLocate holds every constructor's walk to the generic
// locator: the (block, slot, weight) of every coefficient the walk visits,
// keyed by its source tags, are those of locating every coefficient of the
// d-dimensional cross product of the lists whole, and each block is visited
// once. On a Sequential twin the walk takes the generic branch.
func TestPlanMatchesLocate(t *testing.T) {
	for gi, g := range planGeometries {
		ns := make([]int, len(g.shape))
		for i, e := range g.shape {
			ns[i] = bitsOf(e)
		}
		std := NewStandard(ns, g.b)
		for _, c := range planCases {
			tilings := []Tiling{std}
			if c.generic {
				tilings = append(tilings, NewSequential(g.shape, std.BlockSize()))
			}
			for _, tiling := range tilings {
				name := fmt.Sprintf("%v/b%d/%s/%T", g.shape, g.b, c.name, tiling)
				rng := rand.New(rand.NewSource(int64(40 + gi)))
				for trial := 0; trial < 20; trial++ {
					var p Plan
					p.Reset(tiling)
					lists := make([][]refEntry, len(ns))
					for dim, n := range ns {
						lists[dim] = c.build(&p, dim, n, rng)
					}
					checkPlan(t, name, &p, std, tiling, lists)
				}
			}
		}
	}
}

func bitsOf(e int) int {
	n := 0
	for 1<<uint(n) < e {
		n++
	}
	return n
}

// checkPlan compares the walk of p with the reference lists.
func checkPlan(t *testing.T, name string, p *Plan, std *Standard, tiling Tiling, lists [][]refEntry) {
	t.Helper()
	type located struct {
		block, slot int
		w           float64
	}
	want := map[string]located{}
	d := len(lists)
	at := make([]int, d)
	coords, srcs := make([]int, d), make([]int, d)
	for {
		w, block, slot, scaling := 1.0, 0, 0, false
		for dim, i := range at {
			e := lists[dim][i]
			w *= e.w
			coords[dim], srcs[dim] = e.idx, e.src
			scaling = scaling || e.scaling
		}
		if scaling { // a leaf path's scaling slots: locate per dimension
			for dim, i := range at {
				e := lists[dim][i]
				bt, st := e.tile, 0
				if !e.scaling {
					bt, st = std.Dim(dim).Locate1D(e.idx)
				}
				block += bt * std.Stride(dim)
				slot = slot*std.Dim(dim).BlockSize() + st
			}
		} else {
			block, slot = tiling.Locate(coords)
		}
		want[fmt.Sprint(srcs, coords)] = located{block, slot, w}
		dim := d - 1
		for ; dim >= 0; dim-- {
			if at[dim]++; at[dim] < len(lists[dim]) {
				break
			}
			at[dim] = 0
		}
		if dim < 0 {
			break
		}
	}
	// A Standard walk visits each block once; the generic one, each
	// coefficient.
	visited := map[[2]int]bool{}
	got := map[string]located{}
	for p.Next() {
		block, slot := p.Block()
		if visited[[2]int{block, slot}] {
			t.Fatalf("%s: block %d visited twice", name, block)
		}
		visited[[2]int{block, slot}] = true
		p.EachCoef(func(slot int, pick []PlanEntry) {
			w := 1.0
			for dim, e := range pick {
				w *= e.W
				coords[dim], srcs[dim] = e.Index, e.Src
			}
			got[fmt.Sprint(srcs, coords)] = located{block, slot, w}
		})
	}
	if len(got) != len(want) {
		t.Fatalf("%s: walk visits %d coefficients, the cross product has %d", name, len(got), len(want))
	}
	for key, w := range want {
		if g, ok := got[key]; !ok || g != w {
			t.Fatalf("%s: coefficient %s walks to %+v, Locate gives %+v", name, key, g, w)
		}
	}
}
