package appender

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/ndarray"
)

// readHat reads every stored coefficient of the appender's transform.
func readHat(t *testing.T, a *Appender) *ndarray.Array {
	t.Helper()
	hat := ndarray.New(a.Shape()...)
	hat.Each(func(coords []int, _ float64) {
		v, err := a.Store().Get(coords)
		if err != nil {
			t.Fatal(err)
		}
		hat.Set(v, coords...)
	})
	return hat
}

// TestAppendBatchGroupMatchesSequential holds the group merge — the whole
// group cut into dyadic runs once, one bucket set, one apply — to the
// per-slab path it replaced: one Append per slab, which is the same code on
// groups of one. Stored coefficients must agree to 1e-9 relative and both
// must reconstruct the dense array.
func TestAppendBatchGroupMatchesSequential(t *testing.T) {
	cases := []struct {
		name   string
		shape  []int
		b, dim int
		cross  []int // slab extents; the entry for dim is ignored
		before []int // slab widths appended one by one before the group
		group  []int // slab widths of the group
	}{
		{"1d aligned", []int{32}, 2, 0, []int{0}, []int{8}, []int{2, 2, 2, 2}},
		{"1d unaligned frontier, unequal widths", []int{32}, 2, 0, []int{0}, []int{3}, []int{1, 2, 5, 3, 1}},
		{"2d unequal widths", []int{4, 16}, 1, 1, []int{4, 0}, []int{2}, []int{1, 3, 2, 4}},
		{"2d along the outer dimension", []int{8, 4}, 1, 0, []int{0, 4}, []int{1}, []int{2, 1, 3}},
		{"2d two expansions", []int{4, 4}, 1, 1, []int{4, 0}, []int{3}, []int{2, 4, 1, 4}},
		{"2d tile does not divide levels", []int{16, 8}, 3, 1, []int{16, 0}, []int{5}, []int{3, 3, 7, 9}},
		{"3d along the middle dimension", []int{4, 4, 2}, 1, 1, []int{4, 0, 2}, []int{1}, []int{1, 2, 3}},
		{"3d two expansions", []int{2, 4, 4}, 2, 2, []int{2, 4, 0}, nil, []int{5, 1, 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			slabOf := func(w int) *ndarray.Array {
				shape := append([]int(nil), tc.cross...)
				shape[tc.dim] = w
				return randSlab(rng, shape...)
			}
			grouped, err := New(tc.shape, tc.b)
			if err != nil {
				t.Fatal(err)
			}
			sequential, err := New(tc.shape, tc.b)
			if err != nil {
				t.Fatal(err)
			}
			var slabs []*ndarray.Array
			for _, w := range tc.before {
				slab := slabOf(w)
				slabs = append(slabs, slab)
				for _, a := range []*Appender{grouped, sequential} {
					if _, err := a.Append(tc.dim, slab); err != nil {
						t.Fatal(err)
					}
				}
			}
			var group []*ndarray.Array
			for _, w := range tc.group {
				group = append(group, slabOf(w))
			}
			slabs = append(slabs, group...)
			gst, err := grouped.AppendBatch(tc.dim, group)
			if err != nil {
				t.Fatal(err)
			}
			expansions := 0
			for _, slab := range group {
				st, err := sequential.Append(tc.dim, slab)
				if err != nil {
					t.Fatal(err)
				}
				expansions += st.Expansions
			}
			if gst.Slabs != len(group) || gst.Expansions != expansions || gst.MergeIO.Commits != 1 {
				t.Fatalf("group stats %+v, want %d slabs, %d expansions, one commit", gst, len(group), expansions)
			}
			if g, s := fmt.Sprint(grouped.Shape(), grouped.Used()), fmt.Sprint(sequential.Shape(), sequential.Used()); g != s {
				t.Fatalf("shape and frontier %s after the group, %s after the slabs", g, s)
			}

			got, want := readHat(t, grouped), readHat(t, sequential)
			scale := 0.0
			for _, v := range want.Data() {
				scale = math.Max(scale, math.Abs(v))
			}
			if diff := got.MaxAbsDiff(want); diff > 1e-9*scale {
				t.Errorf("coefficients differ by %g (largest %g)", diff, scale)
			}
			dense := ndarray.New(grouped.Shape()...)
			at := make([]int, len(tc.shape))
			for _, slab := range slabs {
				dense.SubPaste(slab, at)
				at[tc.dim] += slab.Extent(tc.dim)
			}
			rec, err := grouped.Reconstruct()
			if err != nil {
				t.Fatal(err)
			}
			if !rec.EqualApprox(dense, 1e-8) {
				t.Errorf("reconstruction differs from the dense array by %g", rec.MaxAbsDiff(dense))
			}
		})
	}
}

// TestGroupMergeTouchesEachBlockOnce pins the cost the ingest benchmark
// sees: a request of 16 [64,1] slabs at an aligned frontier is one dyadic
// run, so the group reads and writes each distinct destination block once —
// where one merge per slab re-read and re-wrote the shared ones 16 times.
func TestGroupMergeTouchesEachBlockOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	group := make([]*ndarray.Array, 16)
	for i := range group {
		group[i] = randSlab(rng, 64, 1)
	}
	grouped, err := New([]int{64, 1024}, 3)
	if err != nil {
		t.Fatal(err)
	}
	sequential, err := New([]int{64, 1024}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Put the frontier at 512, group-aligned.
	fill := randSlab(rng, 64, 512)
	for _, a := range []*Appender{grouped, sequential} {
		if _, err := a.Append(1, fill); err != nil {
			t.Fatal(err)
		}
	}
	st, err := grouped.AppendBatch(1, group)
	if err != nil {
		t.Fatal(err)
	}
	var perSlab int64
	for _, slab := range group {
		sst, err := sequential.Append(1, slab)
		if err != nil {
			t.Fatal(err)
		}
		perSlab += sst.MergeIO.Reads + sst.MergeIO.Writes
	}
	// All 9 tiles of the 64 rows, crossed with the 5 tiles along the
	// frontier dimension that hold the run's subtree and its path to the root.
	const distinct = 45
	if st.MergeIO.Reads != distinct || st.MergeIO.Writes != distinct {
		t.Errorf("group merge: %d reads, %d writes, want %d each", st.MergeIO.Reads, st.MergeIO.Writes, distinct)
	}
	if perSlab != 1152 {
		t.Errorf("one merge per slab: %d block accesses, pinned at 1152", perSlab)
	}
}
