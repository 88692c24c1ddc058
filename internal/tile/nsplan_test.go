package tile

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/core"
	"github.com/shiftsplit/shiftsplit/internal/haar"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
)

// nsCoef is a coefficient a non-standard plan yields, by its location.
type nsCoef struct{ block, slot int }

// nsPlanGeometries are the cubes the plan is checked on: n a multiple of
// b, not a multiple, smaller than b, and the one-cell domain.
var nsPlanGeometries = []struct{ n, d, b int }{
	{7, 1, 3}, {5, 2, 2}, {4, 2, 2}, {2, 2, 3}, {3, 3, 2}, {2, 3, 3}, {0, 2, 2},
}

// walkBlocks walks the plan twice, holding each walk to ascending blocks,
// each once, its (tile, level) pairs to Pairs, and the second walk to the
// first, and calls visit on every tile of the first.
func walkBlocks(t *testing.T, p *NonStdPlan, visit func()) {
	t.Helper()
	var first []int
	pairs := 0
	for p.Next() {
		if n := len(first); n > 0 && p.Block() <= first[n-1] {
			t.Fatalf("walk visits block %d after %d", p.Block(), first[n-1])
		}
		first = append(first, p.Block())
		hi, low := p.Levels()
		pairs += hi - low + 1
		visit()
	}
	if pairs != p.Pairs() {
		t.Fatalf("walk visits %d (tile, level) pairs, Pairs says %d", pairs, p.Pairs())
	}
	i := 0
	for ; p.Next(); i++ {
		if i >= len(first) || p.Block() != first[i] {
			t.Fatalf("second walk differs at tile %d", i)
		}
	}
	if i != len(first) {
		t.Fatalf("second walk visits %d tiles, first %d", i, len(first))
	}
}

// sameCoefs fails unless got and want hold the same coefficients.
func sameCoefs[V comparable](t *testing.T, what string, got, want map[nsCoef]V) {
	t.Helper()
	for c, w := range want {
		if g, ok := got[c]; !ok || g != w {
			t.Fatalf("%s: block %d slot %d: plan %v (present %v), reference %v", what, c.block, c.slot, g, ok, w)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: plan yields %d coefficients, reference %d", what, len(got), len(want))
	}
}

// TestNonStdPlanMatchesLocate checks every shape of the plan against a
// brute-force enumeration located by NonStandard.Locate: a range sum's
// cut cells with their Overlap weights, a cube's path with its signs
// (core.EachSplitNonStandard), its subtree with each coefficient's source
// (core.EachShiftNonStandard), and a point's leaf path.
func TestNonStdPlanMatchesLocate(t *testing.T) {
	for gi, g := range nsPlanGeometries {
		tl := NewNonStandard(g.n, g.d, g.b)
		shape, size := tl.Domain(), 1<<uint(g.n)
		rng := rand.New(rand.NewSource(int64(40 + gi)))
		for trial := 0; trial < 20; trial++ {
			name := fmt.Sprintf("n%d/d%d/b%d/trial%d", g.n, g.d, g.b, trial)
			var p NonStdPlan
			coords := make([]int, g.d)

			start, extent := make([]int, g.d), make([]int, g.d)
			for t := range start {
				start[t] = rng.Intn(size)
				extent[t] = 1 + rng.Intn(size-start[t])
			}
			p.RangeSum(tl, start, extent)
			sameCoefs(t, name+"/RangeSum", rangeSumFromPlan(t, &p), rangeSumReference(tl, start, extent))
			for t := range extent { // a point's root path: the one-cell box
				extent[t] = 1
			}
			p.RangeSum(tl, start, extent)
			sameCoefs(t, name+"/point", rangeSumFromPlan(t, &p), rangeSumReference(tl, start, extent))

			m := rng.Intn(g.n + 1)
			pos := make([]int, g.d)
			for t := range pos {
				pos[t] = rng.Intn(1 << uint(g.n-m))
			}
			p.Cube(tl, m, pos, m+1, g.n)
			want := map[nsCoef]float64{}
			core.EachSplitNonStandard(shape, m, pos, 1, func(c []int, w float64) {
				if j := nodeLevel(g.n, c); j > 0 {
					block, slot := tl.Locate(c)
					want[nsCoef{block, slot}] = w * float64(int64(1)<<uint(g.d*(j-m)))
				}
			})
			sameCoefs(t, name+"/path", pathFromPlan(t, &p), want)

			p.Cube(tl, m, pos, 1, m)
			hat := ndarray.New(cubeShape(m, g.d)...)
			for i := range hat.Data() {
				hat.Data()[i] = float64(i)
			}
			src := map[nsCoef]int{}
			core.EachShiftNonStandard(shape, m, pos, hat, func(c []int, v float64) {
				block, slot := tl.Locate(c)
				src[nsCoef{block, slot}] = int(v)
			})
			got, step := map[nsCoef]int{}, 1<<uint(g.d)-1
			walkBlocks(t, &p, func() {
				hi, low := p.Levels()
				for j := hi; j >= low; j-- {
					p.Runs(j, func(slot, off, n int) {
						for i := 0; i < n; i++ {
							got[nsCoef{p.Block(), slot + i*step}] = off + i
						}
					})
				}
			})
			sameCoefs(t, name+"/subtree", got, src)

			for t := range coords {
				coords[t] = rng.Intn(size)
			}
			p.Leaf(tl, coords)
			want = map[nsCoef]float64{}
			leaf := 0
			if g.n > 0 {
				level1 := make([]int, g.d)
				for t, x := range coords {
					level1[t] = x>>1 + 1<<uint(g.n-1)
				}
				leaf, _ = tl.Locate(level1)
			}
			core.EachSplitNonStandard(shape, 0, coords, 1, func(c []int, w float64) {
				if j := nodeLevel(g.n, c); j > 0 {
					if block, slot := tl.Locate(c); block == leaf {
						want[nsCoef{block, slot}] = w * float64(int64(1)<<uint(g.d*j))
					}
				}
			})
			sameCoefs(t, name+"/leaf", pathFromPlan(t, &p), want)
		}
	}
}

// nodeLevel returns the level of the node a non-zero coordinate of a
// transform of edge 2^n names (0 for the overall average).
func nodeLevel(n int, c []int) int {
	top := 0
	for _, x := range c {
		top = max(top, x)
	}
	j := n
	for ; top > 1; top >>= 1 {
		j--
	}
	if top == 0 {
		return 0
	}
	return j
}

// pathFromPlan lists a cube plan's path nodes with their signs.
func pathFromPlan(t *testing.T, p *NonStdPlan) map[nsCoef]float64 {
	got := map[nsCoef]float64{}
	walkBlocks(t, p, func() {
		hi, low := p.Levels()
		for j := hi; j > p.m && j >= low; j-- {
			slot, neg := p.node(j)
			for mask := 1; mask < 1<<uint(p.d); mask++ {
				got[nsCoef{p.Block(), slot + mask - 1}] = sign(mask, neg)
			}
		}
	})
	return got
}

// rangeSumFromPlan sums the weights of the coefficients of a range-sum
// plan's boxes and keeps the nonzero ones: per dimension a covered cell weighs T = 2^j and D = 0,
// a cut end its own; the detail of subband mask weighs the product of D
// along mask and T elsewhere.
func rangeSumFromPlan(t *testing.T, p *NonStdPlan) map[nsCoef]float64 {
	got := map[nsCoef]float64{}
	type cand struct {
		off  int
		t, d float64
	}
	cands := make([][]cand, p.d)
	pick := make([]int, p.d)
	walkBlocks(t, p, func() {
		hi, low := p.Levels()
		for j := hi; j >= low; j-- {
			box := p.Box(j)
			for t, e := range box.Edges {
				cands[t] = cands[t][:0]
				for c := e.From; c <= e.To; c++ {
					cands[t] = append(cands[t], cand{c * e.Step, float64(int(1) << uint(j)), 0})
				}
				for _, x := range e.Ends[:e.N] {
					cands[t] = append(cands[t], cand{x.Off, x.T, x.D})
				}
			}
			var walk func(t int)
			walk = func(t int) {
				if t < p.d {
					for k := range cands[t] {
						pick[t] = k
						walk(t + 1)
					}
					return
				}
				for mask := 1; mask < 1<<uint(p.d); mask++ {
					slot, w := box.Origin+mask-1, 1.0
					for t, k := range pick {
						c := cands[t][k]
						slot += c.off
						if mask>>uint(t)&1 == 1 {
							w *= c.d
						} else {
							w *= c.t
						}
					}
					got[nsCoef{p.Block(), slot}] += w // a cell the plan yields twice weighs double
				}
			}
			walk(0)
		}
	})
	for c, w := range got {
		if w == 0 {
			delete(got, c)
		}
	}
	return got
}

// rangeSumReference lists, for every level, cell and subband of the
// domain, the coefficients whose range-sum weight, the product of the
// box's Overlap D along the subband and T elsewhere, is nonzero.
func rangeSumReference(tl *NonStandard, start, extent []int) map[nsCoef]float64 {
	want := map[nsCoef]float64{}
	d, coords := len(start), make([]int, len(start))
	cell := make([]int, d)
	for j := 1; j <= tl.n; j++ {
		cells := 1 << uint(tl.n-j)
		for x := 0; x < 1<<uint(d*(tl.n-j)); x++ {
			for t, rest := d-1, x; t >= 0; t-- {
				cell[t], rest = rest%cells, rest/cells
			}
			for mask := 1; mask < 1<<uint(d); mask++ {
				w := 1.0
				for t, c := range cell {
					T, D := haar.Overlap(start[t], start[t]+extent[t], j, c)
					coords[t] = c
					if mask>>uint(t)&1 == 1 {
						w *= float64(D)
						coords[t] += cells
					} else {
						w *= float64(T)
					}
				}
				if w != 0 {
					block, slot := tl.Locate(coords)
					want[nsCoef{block, slot}] = w
				}
			}
		}
	}
	return want
}
