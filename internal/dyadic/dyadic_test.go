package dyadic

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIntervalBasics(t *testing.T) {
	iv := NewInterval(3, 2) // [16, 23]
	if iv.Start() != 16 || iv.End() != 23 || iv.Len() != 8 {
		t.Fatalf("interval geometry wrong: %v start=%d end=%d len=%d", iv, iv.Start(), iv.End(), iv.Len())
	}
	if !iv.Contains(16) || !iv.Contains(23) || iv.Contains(15) || iv.Contains(24) {
		t.Error("Contains boundaries wrong")
	}
}

func TestFromRange(t *testing.T) {
	iv, ok := FromRange(16, 8)
	if !ok || iv != NewInterval(3, 2) {
		t.Fatalf("FromRange(16,8) = %v, %v", iv, ok)
	}
	if _, ok := FromRange(17, 8); ok {
		t.Error("unaligned range accepted")
	}
	if _, ok := FromRange(16, 6); ok {
		t.Error("non-power-of-two length accepted")
	}
	if _, ok := FromRange(-8, 8); ok {
		t.Error("negative start accepted")
	}
}

func TestCovers(t *testing.T) {
	// w[2,0] covers w[1,0] and w[1,1] (paper's example after Definition 2).
	big := NewInterval(2, 0)
	if !big.Covers(NewInterval(1, 0)) || !big.Covers(NewInterval(1, 1)) {
		t.Error("level-2 interval should cover both level-1 children")
	}
	if big.Covers(NewInterval(1, 2)) {
		t.Error("should not cover sibling subtree")
	}
	if !big.Covers(big) {
		t.Error("interval should cover itself")
	}
	if NewInterval(1, 0).Covers(big) {
		t.Error("child cannot cover parent")
	}
}

func TestParentChildRoundTrip(t *testing.T) {
	for level := 1; level < 6; level++ {
		for pos := 0; pos < 8; pos++ {
			iv := NewInterval(level, pos)
			if iv.Left().Parent() != iv || iv.Right().Parent() != iv {
				t.Fatalf("parent/child round trip failed at %v", iv)
			}
		}
	}
}

func TestChildrenPartitionParent(t *testing.T) {
	iv := NewInterval(4, 3)
	l, r := iv.Left(), iv.Right()
	if l.Start() != iv.Start() || r.End() != iv.End() || l.End()+1 != r.Start() {
		t.Fatalf("children %v,%v do not partition %v", l, r, iv)
	}
}

func TestLevelZeroChildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Left of level-0 did not panic")
		}
	}()
	NewInterval(0, 5).Left()
}

func TestDecomposeExact(t *testing.T) {
	// [3, 11) -> [3,3] [4,7] [8,9] [10,10]
	got := Decompose(3, 11)
	want := []Interval{{0, 3}, {2, 1}, {1, 4}, {0, 10}}
	if len(got) != len(want) {
		t.Fatalf("Decompose(3,11) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Decompose(3,11)[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestDecomposeEmpty(t *testing.T) {
	if got := Decompose(5, 5); len(got) != 0 {
		t.Errorf("empty range produced %v", got)
	}
}

func TestDecomposeWholeDomain(t *testing.T) {
	got := Decompose(0, 64)
	if len(got) != 1 || got[0] != NewInterval(6, 0) {
		t.Errorf("Decompose(0,64) = %v", got)
	}
}

func TestDecomposeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		start := rng.Intn(1024)
		end := start + rng.Intn(1024)
		ivs := Decompose(start, end)
		// Intervals must tile [start,end) exactly, in order.
		pos := start
		for _, iv := range ivs {
			if iv.Start() != pos {
				t.Fatalf("gap/overlap at %v (pos=%d) for [%d,%d)", iv, pos, start, end)
			}
			pos = iv.End() + 1
		}
		if pos != end {
			t.Fatalf("decomposition of [%d,%d) ends at %d", start, end, pos)
		}
		// Minimality: no two adjacent same-level intervals that could merge.
		for i := 1; i < len(ivs); i++ {
			a, b := ivs[i-1], ivs[i]
			if a.Level == b.Level && a.Pos+1 == b.Pos && a.Pos%2 == 0 {
				t.Fatalf("non-minimal decomposition: %v + %v mergeable", a, b)
			}
		}
	}
}

func TestRangeBasics(t *testing.T) {
	r := NewCubeRange(2, []int{1, 3})
	if r.Dims() != 2 || r.Volume() != 16 {
		t.Fatalf("range geometry wrong: %v", r)
	}
	if s := r.Start(); s[0] != 4 || s[1] != 12 {
		t.Errorf("Start = %v", s)
	}
	if sh := r.Shape(); sh[0] != 4 || sh[1] != 4 {
		t.Errorf("Shape = %v", sh)
	}
}

func TestRangeCovers(t *testing.T) {
	big := Range{NewInterval(3, 0), NewInterval(3, 1)}
	small := Range{NewInterval(1, 2), NewInterval(2, 2)}
	if !big.Covers(small) {
		t.Error("big should cover small")
	}
	if small.Covers(big) {
		t.Error("small should not cover big")
	}
	if big.Covers(Range{NewInterval(3, 0)}) {
		t.Error("dimension mismatch should not cover")
	}
}

func TestCubeRangeChildrenPartition(t *testing.T) {
	// The 2^d children of a cube (the non-standard quadtree of Figure 7)
	// tile it exactly.
	for _, pos := range [][]int{{3}, {1, 2}, {0, 3, 1}} {
		r := NewCubeRange(3, pos)
		seen := map[string]bool{}
		for mask := 0; mask < 1<<uint(len(pos)); mask++ {
			cp := make([]int, len(pos))
			for i, p := range pos {
				cp[i] = 2*p + mask>>uint(i)&1
			}
			c := NewCubeRange(2, cp)
			if !r.Covers(c) || c.Covers(r) {
				t.Fatalf("%v vs child %v: cover relation wrong", r, c)
			}
			pt := c.Start()
			var walk func(dim int)
			walk = func(dim int) {
				if dim == len(pt) {
					key := fmt.Sprint(pt)
					if seen[key] {
						t.Fatalf("%v: cell %v covered twice", r, pt)
					}
					seen[key] = true
					if !r.Contains(pt) {
						t.Fatalf("%v: child cell %v outside the parent", r, pt)
					}
					return
				}
				lo := c[dim].Start()
				for x := lo; x <= c[dim].End(); x++ {
					pt[dim] = x
					walk(dim + 1)
				}
				pt[dim] = lo
			}
			walk(0)
		}
		if len(seen) != r.Volume() {
			t.Errorf("%v: children cover %d cells, want %d", r, len(seen), r.Volume())
		}
	}
}

func TestCubeRangePathToRoot(t *testing.T) {
	// The level-j cube holding a point sits at pos point>>j, and each level
	// up covers the one below, ending at the whole domain.
	n := 4
	point := []int{5, 11, 14}
	var prev Range
	for j := 0; j <= n; j++ {
		pos := make([]int, len(point))
		for i, p := range point {
			pos[i] = p >> uint(j)
		}
		c := NewCubeRange(j, pos)
		if !c.Contains(point) {
			t.Fatalf("level %d cube %v does not hold %v", j, c, point)
		}
		if prev != nil && !c.Covers(prev) {
			t.Fatalf("level %d cube %v does not cover %v", j, c, prev)
		}
		prev = c
	}
	if s := prev.Start(); s[0] != 0 || s[1] != 0 || s[2] != 0 || prev.Volume() != 1<<uint(3*n) {
		t.Errorf("root cube %v is not the whole domain", prev)
	}
}

func TestRangeNonCubic(t *testing.T) {
	r := Range{NewInterval(2, 0), NewInterval(3, 0)}
	if r.Volume() != 32 {
		t.Errorf("Volume = %d", r.Volume())
	}
}

func TestQuickCoversTransitive(t *testing.T) {
	f := func(l1, l2, l3, p uint8) bool {
		a := NewInterval(int(l1%4), int(p%8))
		b := NewInterval(a.Level+int(l2%4), a.Pos>>(l2%4))
		c := NewInterval(b.Level+int(l3%4), b.Pos>>(l3%4))
		return c.Covers(a) && c.Covers(b) && b.Covers(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickFromRangeRoundTrip(t *testing.T) {
	f := func(level, pos uint8) bool {
		iv := NewInterval(int(level%10), int(pos%100))
		got, ok := FromRange(iv.Start(), iv.Len())
		return ok && got == iv
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRangeContains(t *testing.T) {
	r := Range{NewInterval(2, 1), NewInterval(1, 3)} // [4,7] x [6,7]
	if !r.Contains([]int{5, 6}) || !r.Contains([]int{4, 7}) {
		t.Error("points inside not contained")
	}
	if r.Contains([]int{3, 6}) || r.Contains([]int{5, 8}) || r.Contains([]int{5}) {
		t.Error("points outside contained")
	}
}
