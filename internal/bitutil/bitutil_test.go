package bitutil

import (
	"testing"
	"testing/quick"
)

func TestIsPow2(t *testing.T) {
	cases := map[int]bool{
		-4: false, -1: false, 0: false,
		1: true, 2: true, 3: false, 4: true, 5: false,
		6: false, 8: true, 1024: true, 1025: false,
	}
	for x, want := range cases {
		if got := IsPow2(x); got != want {
			t.Errorf("IsPow2(%d) = %v, want %v", x, got, want)
		}
	}
}

func TestLog2(t *testing.T) {
	for e := 0; e < 30; e++ {
		if got := Log2(1 << uint(e)); got != e {
			t.Errorf("Log2(2^%d) = %d", e, got)
		}
	}
}

func TestLog2PanicsOnNonPow2(t *testing.T) {
	for _, x := range []int{0, -1, 3, 6, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Log2(%d) did not panic", x)
				}
			}()
			Log2(x)
		}()
	}
}

func TestPow2(t *testing.T) {
	if Pow2(0) != 1 || Pow2(1) != 2 || Pow2(10) != 1024 {
		t.Fatal("Pow2 basic values wrong")
	}
}

func TestPow2PanicsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Pow2(-1) did not panic")
		}
	}()
	Pow2(-1)
}

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{
		1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 7: 3, 8: 3, 9: 4, 1024: 10, 1025: 11,
	}
	for x, want := range cases {
		if got := CeilLog2(x); got != want {
			t.Errorf("CeilLog2(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestCeilDiv(t *testing.T) {
	cases := [][3]int{{0, 1, 0}, {1, 1, 1}, {5, 2, 3}, {6, 2, 3}, {7, 8, 1}, {8, 8, 1}, {9, 8, 2}}
	for _, c := range cases {
		if got := CeilDiv(c[0], c[1]); got != c[2] {
			t.Errorf("CeilDiv(%d, %d) = %d, want %d", c[0], c[1], got, c[2])
		}
	}
}

func TestIntPow(t *testing.T) {
	cases := [][3]int{
		{2, 0, 1}, {2, 10, 1024}, {3, 4, 81}, {10, 3, 1000}, {1, 100, 1}, {7, 1, 7},
	}
	for _, c := range cases {
		if got := IntPow(c[0], c[1]); got != c[2] {
			t.Errorf("IntPow(%d, %d) = %d, want %d", c[0], c[1], got, c[2])
		}
	}
}

func TestIntPowOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("IntPow(2, 70) did not panic")
		}
	}()
	IntPow(2, 70)
}

func TestMinMax(t *testing.T) {
	if Min(3, 5) != 3 || Min(5, 3) != 3 || Max(3, 5) != 5 || Max(5, 3) != 5 {
		t.Fatal("Min/Max wrong")
	}
}

func TestQuickPow2RoundTrip(t *testing.T) {
	f := func(e uint8) bool {
		x := int(e % 40)
		return Log2(Pow2(x)) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCeilDiv(t *testing.T) {
	f := func(a uint16, b uint16) bool {
		x, y := int(a), int(b%1000)+1
		q := CeilDiv(x, y)
		return q*y >= x && (q-1)*y < x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
