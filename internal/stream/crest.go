package stream

// crest is the in-memory bottom-up merger of Result 2, the engine of the
// non-standard stream synopsis (Result 5): for every level above the
// chunks it buffers the 2^d child averages of the currently open node;
// when the last child arrives it emits the node's 2^d - 1 details (in the
// Mallat coordinates of the enclosing cubic transform) and pushes the node
// average one level up. The final push emits the overall average at the
// origin.
type crest struct {
	d, n, m int
	// buf[j-m-1] holds the child averages accumulating for the open node at
	// level j; count[j-m-1] tracks how many have arrived.
	buf   [][]float64
	count []int
	emit  func(coords []int, v float64)
	// Preallocated per-depth scratch: push runs once per chunk (and
	// recursively per completed node), so its coordinate slices must not be
	// rebuilt per call. coords is shared across depths — emit must not
	// retain it; parents is per-depth because a completed node passes its
	// parent position into the recursive push.
	parents [][]int
	coords  []int
	origin  []int
}

// newCrest creates a crest for chunks of edge 2^m inside a cubic domain of
// edge 2^n with d dimensions; emit receives each finalized coefficient.
func newCrest(d, n, m int, emit func(coords []int, v float64)) *crest {
	levels := n - m
	c := &crest{d: d, n: n, m: m, emit: emit, count: make([]int, levels)}
	c.buf = make([][]float64, levels)
	c.parents = make([][]int, levels)
	for i := range c.buf {
		c.buf[i] = make([]float64, 1<<uint(d))
		c.parents[i] = make([]int, d)
	}
	c.coords = make([]int, d)
	c.origin = make([]int, d)
	return c
}

// push delivers the average of the level-(m+depth) cell at position pos
// (z-order guarantees siblings arrive consecutively). Callers use depth 0
// (a chunk average); recursion uses higher depths.
func (c *crest) push(depth int, pos []int, avg float64) {
	if c.m+depth == c.n {
		c.emit(c.origin, avg)
		return
	}
	slot := 0
	for i := 0; i < c.d; i++ {
		slot |= (pos[i] & 1) << uint(i)
	}
	level := depth // index into buf: node being built at level m+depth+1
	c.buf[level][slot] = avg
	c.count[level]++
	if c.count[level] < 1<<uint(c.d) {
		return
	}
	// Node complete: compute its details and average.
	c.count[level] = 0
	j := c.m + depth + 1
	parent := c.parents[depth]
	for i := 0; i < c.d; i++ {
		parent[i] = pos[i] >> 1
	}
	den := float64(int(1) << uint(c.d))
	base := 1 << uint(c.n-j)
	coords := c.coords
	var parentAvg float64
	for mask := 0; mask < 1<<uint(c.d); mask++ {
		sum := 0.0
		for q := 0; q < 1<<uint(c.d); q++ {
			w := 1.0
			for i := 0; i < c.d; i++ {
				if mask>>uint(i)&1 == 1 && q>>uint(i)&1 == 1 {
					w = -w
				}
			}
			sum += w * c.buf[level][q]
		}
		sum /= den
		if mask == 0 {
			parentAvg = sum
			continue
		}
		for i := 0; i < c.d; i++ {
			coords[i] = parent[i]
			if mask>>uint(i)&1 == 1 {
				coords[i] += base
			}
		}
		c.emit(coords, sum)
	}
	c.push(depth+1, parent, parentAvg)
}
