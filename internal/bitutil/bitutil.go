// Package bitutil provides small power-of-two and bit arithmetic helpers
// shared by the wavelet packages. All sizes in this repository (vector
// lengths, chunk edges, block sizes) are powers of two, so these helpers are
// used pervasively and panic loudly on violations rather than guessing.
package bitutil

import (
	"fmt"
	"math/bits"
)

// IsPow2 reports whether x is a positive power of two.
func IsPow2(x int) bool {
	return x > 0 && x&(x-1) == 0
}

// Log2 returns log2(x) for a positive power of two x.
// It panics if x is not a positive power of two.
func Log2(x int) int {
	if !IsPow2(x) {
		panic(fmt.Sprintf("bitutil: Log2 of non-power-of-two %d", x))
	}
	return bits.TrailingZeros(uint(x))
}

// Pow2 returns 2^e for e >= 0. It panics on negative e or overflow.
func Pow2(e int) int {
	if e < 0 || e >= bits.UintSize-2 {
		panic(fmt.Sprintf("bitutil: Pow2 exponent %d out of range", e))
	}
	return 1 << uint(e)
}

// FloorLog2 returns the largest e such that 2^e <= x, for x >= 1.
func FloorLog2(x int) int {
	if x < 1 {
		panic(fmt.Sprintf("bitutil: FloorLog2 of %d", x))
	}
	return bits.Len(uint(x)) - 1
}

// CeilLog2 returns the smallest e such that 2^e >= x, for x >= 1.
func CeilLog2(x int) int {
	if x < 1 {
		panic(fmt.Sprintf("bitutil: CeilLog2 of %d", x))
	}
	if x == 1 {
		return 0
	}
	return bits.Len(uint(x - 1))
}

// CeilDiv returns ceil(a/b) for b > 0 and a >= 0.
func CeilDiv(a, b int) int {
	if b <= 0 || a < 0 {
		panic(fmt.Sprintf("bitutil: CeilDiv(%d, %d)", a, b))
	}
	return (a + b - 1) / b
}

// IntPow returns base^exp for exp >= 0 using binary exponentiation.
// It panics on overflow of int.
func IntPow(base, exp int) int {
	if exp < 0 {
		panic(fmt.Sprintf("bitutil: IntPow negative exponent %d", exp))
	}
	result := 1
	b := base
	for e := exp; e > 0; e >>= 1 {
		if e&1 == 1 {
			result = mulCheck(result, b)
		}
		if e > 1 {
			b = mulCheck(b, b)
		}
	}
	return result
}

func mulCheck(a, b int) int {
	hi, lo := bits.Mul64(uint64(abs64(a)), uint64(abs64(b)))
	if hi != 0 || lo > uint64(maxInt) {
		panic(fmt.Sprintf("bitutil: IntPow overflow %d*%d", a, b))
	}
	r := a * b
	return r
}

const maxInt = int(^uint(0) >> 1)

func abs64(x int) int64 {
	if x < 0 {
		return int64(-x)
	}
	return int64(x)
}

// Min returns the smaller of a and b.
func Min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Max returns the larger of a and b.
func Max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
