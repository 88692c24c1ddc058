package haar

import "testing"

// The layout of this package is the error tree of §2.2 stored as an
// implicit binary heap: the detail at index i has its parent at i/2 and its
// children at 2i and 2i+1, and u[n,0] at index 0 sits above the root detail
// w[n,0] at index 1. These tests pin that reading through Index, LevelPos,
// Support and PointPath.

func TestErrorTreeParentIsHalfIndex(t *testing.T) {
	for n := 1; n <= 7; n++ {
		// w[j,k]'s parent is w[j+1, k/2].
		for j := 1; j < n; j++ {
			for k := 0; k < 1<<uint(n-j); k++ {
				pj, pk := LevelPos(n, Index(n, j, k)/2)
				if pj != j+1 || pk != k/2 {
					t.Fatalf("n=%d: parent of w[%d,%d] is w[%d,%d], want w[%d,%d]", n, j, k, pj, pk, j+1, k/2)
				}
			}
		}
		if Index(n, n, 0)/2 != 0 {
			t.Fatalf("n=%d: parent of w[n,0] is not u[n,0]", n)
		}
	}
}

func TestErrorTreeChildrenHalveSupport(t *testing.T) {
	n := 6
	for idx := 1; idx < 1<<uint(n-1); idx++ {
		s := Support(n, idx)
		if l, r := Support(n, 2*idx), Support(n, 2*idx+1); l != s.Left() || r != s.Right() {
			t.Fatalf("children of %d have supports %v, %v; want the halves of %v", idx, l, r, s)
		}
	}
	// The upper half holds the finest details, which have no detail children.
	for idx := 1 << uint(n-1); idx < 1<<uint(n); idx++ {
		if j, _ := LevelPos(n, idx); j != 1 {
			t.Fatalf("index %d is at level %d, want the leaf level 1", idx, j)
		}
	}
}

func TestPointPathIsHeapChain(t *testing.T) {
	// Lemma 1's coefficients for point i are the finest detail over i and
	// its heap ancestors, ending at index 0.
	for n := 1; n <= 7; n++ {
		for i := 0; i < 1<<uint(n); i++ {
			path := PointPath(n, i)
			idx := Index(n, 1, i/2)
			for p := 1; p <= n; p++ {
				if path[p].Index != idx {
					t.Fatalf("n=%d point %d: path[%d] = %d, want %d", n, i, p, path[p].Index, idx)
				}
				idx /= 2
			}
			if idx != 0 || path[0].Index != 0 {
				t.Fatalf("n=%d point %d: chain ends at %d, path[0] = %d", n, i, idx, path[0].Index)
			}
		}
	}
	// Point 10 of 16: 13 -> 6 -> 3 -> 1 -> 0.
	want := []int{0, 13, 6, 3, 1}
	for p, c := range PointPath(4, 10) {
		if c.Index != want[p] {
			t.Fatalf("PointPath(4, 10)[%d] = %d, want %d", p, c.Index, want[p])
		}
	}
}

func TestSupportCoversIsHeapAncestry(t *testing.T) {
	// Definition 2's cover relation is ancestry in the heap. u[n,0] and
	// w[n,0] share the whole domain, so index 0 is read as index 1.
	n := 5
	for a := 0; a < 1<<uint(n); a++ {
		for b := 0; b < 1<<uint(n); b++ {
			anc := a == 0
			x := b
			if x == 0 {
				x = 1
			}
			for ; x > 0 && !anc; x /= 2 {
				anc = x == a
			}
			if got := Support(n, a).Covers(Support(n, b)); got != anc {
				t.Fatalf("Support(%d).Covers(Support(%d)) = %v, want %v", a, b, got, anc)
			}
		}
	}
}

func TestSubtreeDetailCountIsSupportLength(t *testing.T) {
	// The subtree of a detail at level j holds 2^j - 1 details: one per
	// dyadic interval of length >= 2 inside its support.
	n := 6
	for a := 1; a < 1<<uint(n); a++ {
		s := Support(n, a)
		count := 0
		for b := 1; b < 1<<uint(n); b++ {
			if s.Covers(Support(n, b)) {
				count++
			}
		}
		if count != s.Len()-1 {
			t.Fatalf("subtree of %d holds %d details, want %d", a, count, s.Len()-1)
		}
	}
}
