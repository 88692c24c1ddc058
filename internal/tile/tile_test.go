package tile

import (
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/haar"
)

func TestOneDPartition(t *testing.T) {
	for _, c := range []struct{ n, b int }{{4, 2}, {5, 2}, {6, 3}, {6, 2}, {3, 4}, {1, 1}, {8, 3}} {
		tiling := NewOneD(c.n, c.b)
		B := tiling.BlockSize()
		seen := map[[2]int]int{}
		for idx := 0; idx < 1<<uint(c.n); idx++ {
			block, slot := tiling.Locate1D(idx)
			if block < 0 || block >= tiling.NumBlocks() {
				t.Fatalf("n=%d b=%d idx=%d: block %d out of [0,%d)", c.n, c.b, idx, block, tiling.NumBlocks())
			}
			if slot < 0 || slot >= B {
				t.Fatalf("n=%d b=%d idx=%d: slot %d out of [0,%d)", c.n, c.b, idx, slot, B)
			}
			if idx != 0 && slot == 0 {
				t.Fatalf("n=%d b=%d idx=%d: detail landed in scaling slot", c.n, c.b, idx)
			}
			key := [2]int{block, slot}
			if prev, dup := seen[key]; dup {
				t.Fatalf("n=%d b=%d: idx %d and %d share block %d slot %d", c.n, c.b, prev, idx, block, slot)
			}
			seen[key] = idx
		}
	}
}

func TestOneDFigure4Geometry(t *testing.T) {
	// Figure 4: a 32-coefficient tree with 4-coefficient blocks.
	// With n=5, b=2 the top band has height 1 (1 tile), then heights 2 and 2
	// (2 and 8 tiles): 11 tiles total.
	tiling := NewOneD(5, 2)
	if tiling.NumBlocks() != 11 {
		t.Errorf("NumBlocks = %d, want 11", tiling.NumBlocks())
	}
	if tiling.BlockSize() != 4 {
		t.Errorf("BlockSize = %d", tiling.BlockSize())
	}
	if h := tiling.TileHeight(0); h != 1 {
		t.Errorf("top tile height = %d, want 1", h)
	}
	if h := tiling.TileHeight(5); h != 2 {
		t.Errorf("full tile height = %d, want 2", h)
	}
}

func TestOneDAlignedCase(t *testing.T) {
	// b | n: every tile is full height, count = (2^n - 1)/(2^b - 1).
	tiling := NewOneD(6, 2)
	if got, want := tiling.NumBlocks(), (64-1)/(4-1); got != want {
		t.Errorf("NumBlocks = %d, want %d", got, want)
	}
	for blk := 0; blk < tiling.NumBlocks(); blk++ {
		if tiling.TileHeight(blk) != 2 {
			t.Fatalf("tile %d height %d", blk, tiling.TileHeight(blk))
		}
	}
}

func TestOneDPathTouchesFewTiles(t *testing.T) {
	// A root path of n levels crosses at most ceil(n/b) tiles: the core
	// benefit of tiling (§3).
	n, b := 12, 3
	tiling := NewOneD(n, b)
	for _, leaf := range []int{1 << uint(n-1), 1<<uint(n) - 1, 1<<uint(n-1) + 137} {
		blocks := map[int]bool{}
		for idx := leaf; idx > 0; idx /= 2 {
			blk, _ := tiling.Locate1D(idx)
			blocks[blk] = true
		}
		blk0, _ := tiling.Locate1D(0)
		blocks[blk0] = true
		if len(blocks) > (n+b-1)/b {
			t.Errorf("path from %d touches %d tiles, want <= %d", leaf, len(blocks), (n+b-1)/b)
		}
	}
}

func TestOneDTileIsSubtree(t *testing.T) {
	// All details in one block must form a connected subtree: each non-root
	// member's parent is in the same block.
	n, b := 7, 3
	tiling := NewOneD(n, b)
	members := map[int][]int{}
	for idx := 1; idx < 1<<uint(n); idx++ {
		blk, _ := tiling.Locate1D(idx)
		members[blk] = append(members[blk], idx)
	}
	for blk, idxs := range members {
		inBlk := map[int]bool{}
		for _, i := range idxs {
			inBlk[i] = true
		}
		rootCount := 0
		for _, i := range idxs {
			if !inBlk[i/2] {
				rootCount++
			}
		}
		if rootCount != 1 {
			t.Errorf("block %d has %d subtree roots", blk, rootCount)
		}
	}
}

func TestOneDRootOf(t *testing.T) {
	n, b := 6, 2
	tiling := NewOneD(n, b)
	for blk := 0; blk < tiling.NumBlocks(); blk++ {
		j, k := tiling.RootOf(blk)
		if blk == 0 {
			if j != n || k != 0 {
				t.Fatalf("top tile root = (%d,%d)", j, k)
			}
			continue
		}
		// The root detail w[j,k] must locate to this block at slot 1.
		gb, gs := tiling.Locate1D(haar.Index(n, j, k))
		if gb != blk || gs != 1 {
			t.Fatalf("RootOf(%d) = (%d,%d) but Locate gives block %d slot %d", blk, j, k, gb, gs)
		}
	}
}

func TestOneDDegenerateDomain(t *testing.T) {
	tiling := NewOneD(0, 2)
	if tiling.NumBlocks() != 1 {
		t.Errorf("NumBlocks = %d", tiling.NumBlocks())
	}
	blk, slot := tiling.Locate1D(0)
	if blk != 0 || slot != 0 {
		t.Errorf("Locate1D(0) = (%d,%d)", blk, slot)
	}
	if j, k := tiling.RootOf(0); j != 0 || k != 0 {
		t.Errorf("RootOf(0) = (%d,%d)", j, k)
	}
}

func TestSequentialTiling(t *testing.T) {
	s := NewSequential([]int{4, 4}, 4)
	if s.NumBlocks() != 4 || s.BlockSize() != 4 {
		t.Fatalf("geometry: %d blocks of %d", s.NumBlocks(), s.BlockSize())
	}
	seen := map[[2]int]bool{}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			blk, slot := s.Locate([]int{i, j})
			if blk != (i*4+j)/4 || slot != (i*4+j)%4 {
				t.Fatalf("Locate(%d,%d) = (%d,%d)", i, j, blk, slot)
			}
			seen[[2]int{blk, slot}] = true
		}
	}
	if len(seen) != 16 {
		t.Error("sequential mapping not bijective")
	}
}

func TestStandardPartition(t *testing.T) {
	tiling := NewStandard([]int{4, 3}, 2)
	seen := map[[2]int]bool{}
	count := 0
	for i := 0; i < 16; i++ {
		for j := 0; j < 8; j++ {
			blk, slot := tiling.Locate([]int{i, j})
			if blk < 0 || blk >= tiling.NumBlocks() || slot < 0 || slot >= tiling.BlockSize() {
				t.Fatalf("Locate(%d,%d) = (%d,%d) out of range", i, j, blk, slot)
			}
			key := [2]int{blk, slot}
			if seen[key] {
				t.Fatalf("(%d,%d) collides", i, j)
			}
			seen[key] = true
			count++
		}
	}
	if count != 128 {
		t.Errorf("visited %d coefficients", count)
	}
	if tiling.BlockSize() != 16 {
		t.Errorf("BlockSize = %d, want 16", tiling.BlockSize())
	}
}

func TestNonStandardPartition(t *testing.T) {
	for _, c := range []struct{ n, d, b int }{{3, 2, 1}, {3, 2, 2}, {4, 2, 2}, {2, 3, 1}, {3, 1, 2}, {4, 2, 3}} {
		tiling := NewNonStandard(c.n, c.d, c.b)
		seen := map[[2]int]bool{}
		size := 1 << uint(c.n)
		coords := make([]int, c.d)
		var rec func(dim int)
		count := 0
		rec = func(dim int) {
			if dim == c.d {
				blk, slot := tiling.Locate(coords)
				if blk < 0 || blk >= tiling.NumBlocks() || slot < 0 || slot >= tiling.BlockSize() {
					t.Fatalf("n=%d d=%d b=%d coords %v -> (%d,%d) out of range (%d blocks of %d)",
						c.n, c.d, c.b, coords, blk, slot, tiling.NumBlocks(), tiling.BlockSize())
				}
				key := [2]int{blk, slot}
				if seen[key] {
					t.Fatalf("n=%d d=%d b=%d: coords %v collide at (%d,%d)", c.n, c.d, c.b, coords, blk, slot)
				}
				seen[key] = true
				count++
				return
			}
			for v := 0; v < size; v++ {
				coords[dim] = v
				rec(dim + 1)
			}
		}
		rec(0)
		want := 1
		for i := 0; i < c.d; i++ {
			want *= size
		}
		if count != want {
			t.Errorf("visited %d coefficients, want %d", count, want)
		}
	}
}

func TestNonStandardFigure7Geometry(t *testing.T) {
	// Figure 7: 8x8 array (n=3, d=2) tiled with 16-coefficient blocks (b=2):
	// top band height 1 (1 tile with the root node), then one band of height
	// 2 containing 4 subtrees: 5 tiles.
	tiling := NewNonStandard(3, 2, 2)
	if tiling.BlockSize() != 16 {
		t.Errorf("BlockSize = %d, want 16", tiling.BlockSize())
	}
	if tiling.NumBlocks() != 5 {
		t.Errorf("NumBlocks = %d, want 5", tiling.NumBlocks())
	}
}

func TestNonStandardRootOfRoundTrip(t *testing.T) {
	tiling := NewNonStandard(5, 2, 2)
	for blk := 0; blk < tiling.NumBlocks(); blk++ {
		level, pos := tiling.RootOf(blk)
		if blk == 0 {
			if level != 5 || pos[0] != 0 || pos[1] != 0 {
				t.Fatalf("top tile root = (%d,%v)", level, pos)
			}
			continue
		}
		// A detail of the root node must locate into this block.
		base := 1 << uint(5-level)
		coords := []int{pos[0] + base, pos[1]}
		gb, _ := tiling.Locate(coords)
		if gb != blk {
			t.Fatalf("RootOf(%d) = (%d,%v) but root detail %v locates to block %d", blk, level, pos, coords, gb)
		}
	}
}

func TestNonStandardQuadPathTilesBound(t *testing.T) {
	// The quadtree path of any point must cross at most ceil(n/b) tiles.
	n, d, b := 6, 2, 2
	tiling := NewNonStandard(n, d, b)
	point := []int{41, 27}
	blocks := map[int]bool{}
	for j := 1; j <= n; j++ {
		base := 1 << uint(n-j)
		coords := []int{point[0]>>uint(j) + base, point[1] >> uint(j)}
		blk, _ := tiling.Locate(coords)
		blocks[blk] = true
	}
	if len(blocks) > (n+b-1)/b {
		t.Errorf("path crosses %d tiles, want <= %d", len(blocks), (n+b-1)/b)
	}
}

func TestTheoreticalTileCounts(t *testing.T) {
	if TheoreticalShiftTilesOneD(4, 2) != 4 {
		t.Error("shift tiles: M=16 B=4 should be 4")
	}
	if TheoreticalSplitTilesOneD(10, 4, 3) != 2 {
		t.Error("split tiles: (10-4)/3 = 2")
	}
}

func TestTileIndicesInvertLocate(t *testing.T) {
	for _, c := range []struct{ n, b int }{{6, 2}, {5, 2}, {7, 3}, {3, 4}} {
		tiling := NewOneD(c.n, c.b)
		seen := map[int]bool{}
		for blk := 0; blk < tiling.NumBlocks(); blk++ {
			for _, idx := range tiling.TileIndices(blk) {
				gb, _ := tiling.Locate1D(idx)
				if gb != blk {
					t.Fatalf("n=%d b=%d: index %d listed in tile %d but locates to %d", c.n, c.b, idx, blk, gb)
				}
				if seen[idx] {
					t.Fatalf("index %d listed twice", idx)
				}
				seen[idx] = true
			}
		}
		if len(seen) != 1<<uint(c.n) {
			t.Errorf("n=%d b=%d: enumerated %d indices, want %d", c.n, c.b, len(seen), 1<<uint(c.n))
		}
	}
}

// origin and the slot steps place every node of a level inside its tile
// as Push and At do: the node at cell offset o from the tile's lowest cell
// sits at origin + Σ_t o_t·step_t, in the block of the tile's root.
func TestNonStdLevelOriginStepMatchAt(t *testing.T) {
	for _, c := range []struct{ n, d, b int }{{6, 2, 2}, {5, 2, 3}, {4, 3, 3}, {7, 1, 3}, {10, 2, 4}} {
		tiling := NewNonStandard(c.n, c.d, c.b)
		cell := make([]int, c.d)
		for j := 1; j <= c.n; j++ {
			lvl := tiling.Level(j)
			depth, cells := lvl.depth(), 1<<uint(c.n-j)
			for i := range cell {
				cell[i] = 0
			}
			for {
				root, local := 0, 0
				for _, x := range cell {
					root, local = lvl.Push(root, local, x)
				}
				block, slot := lvl.At(root, local)
				top := tiling.Level(j + depth)
				want := lvl.origin()
				root, local = 0, 0
				for i, x := range cell {
					root, local = top.Push(root, local, x>>uint(depth))
					want += (x - x>>uint(depth)<<uint(depth)) * lvl.details << (lvl.localBits * uint(c.d-1-i))
				}
				if rootBlock, _ := top.At(root, local); block != rootBlock || !top.TileRoot() {
					t.Fatalf("n=%d d=%d b=%d level %d cell %v: block %d, its root's %d (tile root %v)", c.n, c.d, c.b, j, cell, block, rootBlock, top.TileRoot())
				}
				if slot != want {
					t.Fatalf("n=%d d=%d b=%d level %d cell %v: slot %d, Origin/Step give %d", c.n, c.d, c.b, j, cell, slot, want)
				}
				i := c.d - 1
				for ; i >= 0; i-- {
					if cell[i]++; cell[i] < cells {
						break
					}
					cell[i] = 0
				}
				if i < 0 {
					break
				}
			}
		}
	}
}
