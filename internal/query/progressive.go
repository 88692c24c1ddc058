package query

import (
	"cmp"
	"math"
	"slices"

	"github.com/shiftsplit/shiftsplit/internal/bitutil"
	"github.com/shiftsplit/shiftsplit/internal/haar"
	"github.com/shiftsplit/shiftsplit/internal/tile"
)

// ProgressiveStep is one refinement of a progressive range-sum answer.
type ProgressiveStep struct {
	Estimate     float64
	Coefficients int // coefficients incorporated so far
	// Blocks counts the distinct blocks among the coefficients folded so
	// far. All of the query's blocks are fetched before the first step, so
	// only the final step's count is the I/O actually done.
	Blocks int
}

// ProgressiveRangeSum answers a box aggregate from a standard-form tiled
// store progressively: the Lemma-2 coefficient set is consumed coarse to
// fine (largest support first), and each step reports the running estimate
// with the blocks its coefficients span. The final step is the exact
// answer. This is the progressive query answering mode the paper's
// introduction cites as a driving application of wavelet-transformed
// storage.
func ProgressiveRangeSum(st *tile.Store, arrShape, start, shape []int) ([]ProgressiveStep, error) {
	var steps []ProgressiveStep
	err := ProgressiveRangeSumFunc(st, arrShape, start, shape, func(s ProgressiveStep) error {
		steps = append(steps, s)
		return nil
	})
	return steps, err
}

// ProgressiveRangeSumFunc is the streaming form of ProgressiveRangeSum: fn
// is invoked for every refinement step as soon as it is computed, so a
// server can flush partial answers to a client while later steps are still
// being folded. The query's blocks are fetched with one vectored read before
// the first step, so stopping early saves computation, not reads. A non-nil
// error from fn aborts the walk and is returned unchanged.
func ProgressiveRangeSumFunc(st *tile.Store, arrShape, start, shape []int, fn func(ProgressiveStep) error) error {
	if err := ValidateBox(arrShape, start, shape); err != nil {
		return err
	}
	sc := getScratch()
	defer putScratch(sc)
	sc.planStandard(st.Tiling(), arrShape, start, shape)
	p := &sc.plan
	// Each coefficient of the Lemma-2 cross product: where it sits, its
	// weight, its support volume, and its position in the cross product of
	// the lists, dimension 0 outermost.
	type planned struct {
		vol, pos    int
		w           float64
		block, slot int
	}
	size := 1
	for t := range arrShape {
		size *= p.Len(t)
	}
	plan := make([]planned, 0, size)
	for p.Next() {
		block, _ := p.Block()
		sc.Want(block)
		p.EachCoef(func(slot int, pick []tile.PlanEntry) {
			c := planned{vol: 1, w: 1, block: block, slot: slot}
			for t, e := range pick {
				c.w *= e.W
				c.vol *= haar.Support(bitutil.Log2(arrShape[t]), e.Index).Len()
				c.pos = c.pos*p.Len(t) + e.Src
			}
			plan = append(plan, c)
		})
	}
	// Coarse-to-fine: by support volume descending, then by absolute
	// weight descending so the big contributors land early, then in the
	// lists' order.
	slices.SortFunc(plan, func(a, b planned) int {
		if a.vol != b.vol {
			return b.vol - a.vol
		}
		if c := cmp.Compare(math.Abs(b.w), math.Abs(a.w)); c != 0 {
			return c
		}
		return a.pos - b.pos
	})
	if err := sc.Fetch(st, &sc.lease); err != nil {
		return err
	}
	// A step counts the distinct blocks among the coefficients so far.
	seen := make(map[int]bool, sc.Len())
	sum := 0.0
	for i, p := range plan {
		seen[p.block] = true
		sum += p.w * sc.Frame(p.block)[p.slot]
		if err := fn(ProgressiveStep{Estimate: sum, Coefficients: i + 1, Blocks: len(seen)}); err != nil {
			return err
		}
	}
	return nil
}
