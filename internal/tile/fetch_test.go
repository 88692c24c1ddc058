package tile

import (
	"fmt"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// A lookup of a block the plan did not name panics with a message naming
// the block, whether the id falls between two fetched blocks or past the
// last: the binary search's insertion index would otherwise hand back a
// neighbour's frame or fail with a bare index error.
func TestFrameOfUnplannedBlockPanics(t *testing.T) {
	tiling := NewSequential([]int{64}, 4)
	st, err := NewStore(storage.NewMemStore(tiling.BlockSize()), tiling)
	if err != nil {
		t.Fatal(err)
	}
	var f FetchSet
	f.Want(3)
	f.Want(7)
	if err := f.Fetch(st); err != nil {
		t.Fatal(err)
	}
	for _, block := range []int{5, 9} {
		want := fmt.Sprintf("tile: FetchSet.Frame(%d): block not in the fetched plan", block)
		func() {
			defer func() {
				if got := recover(); got != want {
					t.Errorf("Frame(%d) panicked with %v, want %q", block, got, want)
				}
			}()
			f.Frame(block)
		}()
	}
	if len(f.Frame(3)) != 4 || len(f.Frame(7)) != 4 {
		t.Fatal("the planned blocks' frames are gone after the failed lookups")
	}
}
