package tile

// AccumulateScalingSlots completes a bucketed linear update with the change
// it makes to the redundant scaling slots of the tiles it touches, so that a
// store maintained by buckets keeps every tile's root average current
// without reading or writing a tile the update does not already touch.
//
// A slot is linear in the coefficients: the scaling coefficient u[j,k] of a
// tile root is the overall average plus the ±1-weighted details on its path
// to the root (core.ScalingPath1D per dimension on the standard form, the
// quadtree path of core.ScalingNonStandard on the non-standard). Its change
// is therefore the same sum over the set's own deltas. Every such path lies
// in tiles above the slot's tile, and a tile whose root average changes is
// always touched by the update (it holds a SHIFT or SPLIT target), so the
// step adds to buckets that exist and reads only real-coefficient deltas;
// every non-slot delta stays bit-identical. Tilings other than Standard and
// NonStandard carry no slots and are left alone.
func AccumulateScalingSlots(t Tiling, bs *BucketSet) {
	switch tt := t.(type) {
	case *Standard:
		bs.slotsStandard(tt)
	case *NonStandard:
		bs.slotsNonStandard(tt)
	}
}

// slotScratch is the reusable state of the slot step, kept with its
// BucketSet so a pooled set runs the step without allocating.
type slotScratch struct {
	// Standard form: per dimension the bucket's 1-d tile and the range of
	// its real slots; the set of dimensions whose scaling path the plan
	// walks (bit t for dimension t), and the destination and source deltas.
	tiles  []int
	lo, hi []int
	in     int
	edge   int
	dst    []float64
	src    []float64

	// Non-standard form: the root cell of the bucket's tile and the
	// SPLIT's attenuated chunk average per level.
	pos  []int
	attn []float64
}

// slotsStandard adds, to every scaling slot of every touched tile, the
// change the set's deltas make to it. A slot of a standard block crosses one
// slot per dimension; it is a scaling slot when, along some non-top
// dimension, its component is slot 0, the tile-root scaling. Such a slot
// is the sum, over the cross product of those dimensions' scaling paths,
// of the real coefficient the other dimensions' components name.
func (bs *BucketSet) slotsStandard(std *Standard) {
	d := std.Dims()
	sc := &bs.slots
	sc.tiles, sc.lo, sc.hi = resized(sc.tiles, d), resized(sc.lo, d), resized(sc.hi, d)
	sc.edge = std.Dim(0).BlockSize()
	for i := range bs.buckets {
		b := &bs.buckets[i]
		nonTop := 0
		for t := 0; t < d; t++ {
			od := std.Dim(t)
			bt := b.Block / std.Stride(t) % od.NumBlocks()
			sc.tiles[t] = bt
			sc.lo[t], sc.hi[t] = 1, sc.edge
			if bt == od.top {
				sc.lo[t], sc.hi[t] = 0, 1<<uint(od.TileHeight(bt))
				continue
			}
			nonTop |= 1 << uint(t)
		}
		sc.dst = b.Deltas
		for set := nonTop; set > 0; set = (set - 1) & nonTop {
			sc.in = set
			bs.slotsStandardSet(std)
		}
	}
}

// slotsStandardSet adds the slots whose scaling dimensions are exactly
// sc.in. Its plan takes those dimensions' scaling paths (Plan.ScalingPath)
// and stays on the bucket's tile along the others, so the walk visits one
// source block per choice of ancestor tile along the scaling dimensions,
// its runs the path entries in that tile; each is folded over every real
// slot of the other dimensions.
func (bs *BucketSet) slotsStandardSet(std *Standard) {
	sc, p := &bs.slots, &bs.plan
	p.Reset(std)
	for t, bt := range sc.tiles {
		if sc.in>>uint(t)&1 == 1 {
			p.ScalingPath(bt)
		} else {
			p.Stay(bt)
		}
	}
	for p.Next() {
		src, _ := p.Block()
		if k, ok := bs.index[src]; ok {
			sc.src = bs.buckets[k].Deltas
			sc.fold(p, 0, 0, 0, 1)
		}
	}
}

// fold walks dimensions t.. of one source block, dst and src the slot
// prefixes of dimensions ..t-1: a scaling dimension takes slot 0 in the
// destination and its run of path entries in the source, any other the
// same real slot in both. The last dimension is folded in place.
func (sc *slotScratch) fold(p *Plan, t, dst, src int, w float64) {
	dst *= sc.edge
	src *= sc.edge
	last := t == len(sc.tiles)-1
	if sc.in>>uint(t)&1 == 1 {
		path := p.Run(t)
		if last {
			sum := 0.0
			for _, e := range path {
				sum += e.W * sc.src[src+e.Slot]
			}
			sc.dst[dst] += w * sum
			return
		}
		for _, e := range path {
			sc.fold(p, t+1, dst, src+e.Slot, w*e.W)
		}
		return
	}
	lo, hi := sc.lo[t], sc.hi[t]
	if last {
		d, s := sc.dst[dst+lo:dst+hi], sc.src[src+lo:src+hi]
		for i := range d {
			d[i] += w * s[i]
		}
		return
	}
	for s := lo; s < hi; s++ {
		sc.fold(p, t+1, dst+s, src+s, w)
	}
}

// slotsNonStandard adds, to slot 0 of every touched tile but the top one,
// the change the set's deltas make to its root cell's scaling coefficient:
// the overall average plus its root cell's path (a NonStdPlan cube), the
// details of every ancestor node weighted by the cell's side of it.
func (bs *BucketSet) slotsNonStandard(nst *NonStandard) {
	sc, p := &bs.slots, &bs.ns
	sc.pos = resized(sc.pos, nst.d)
	avg := 0.0
	if k, ok := bs.index[0]; ok {
		avg = bs.buckets[k].Deltas[0]
	}
	for i := range bs.buckets {
		b := &bs.buckets[i]
		if b.Block == 0 {
			continue
		}
		j := nst.rootInto(b.Block, sc.pos)
		sum := avg
		p.Cube(nst, j, sc.pos, j+1, nst.n)
		for p.Next() {
			if k, ok := bs.index[p.Block()]; ok {
				sum = p.FoldPath(sum, bs.buckets[k].Deltas)
			}
		}
		b.Deltas[0] += sum
	}
}

// resized returns s with length n, reallocated only when too short; the
// contents are whatever the last use left.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
