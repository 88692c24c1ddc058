package shiftsplit

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

// TestColdRangeSumAllocBudget gates a cold range sum through the serving
// stack on the benchmark's store kind — durable, versioned — in both forms
// on both read legs (pread and mapped), with the cache emptied before
// every query, so each block misses, is remapped through the epoch table,
// read by the device (in coalesced runs, or out of the mapping) and
// checksum-verified. What is left is the pinned snapshot; the read path
// itself allocates nothing.
func TestColdRangeSumAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector: allocation counts are not the product's")
	}
	for _, form := range []Form{Standard, NonStandard} {
		for _, mapped := range []bool{false, true} {
			leg := "pread"
			if mapped {
				leg = "mapped"
			}
			t.Run(fmt.Sprintf("%v/%s", form, leg), func(t *testing.T) {
				coldRangeSumAllocs(t, form, mapped)
			})
		}
	}
}

func coldRangeSumAllocs(t *testing.T, form Form, mapped bool) {
	path := filepath.Join(t.TempDir(), "cold.wav")
	st, err := CreateStore(StoreOptions{Shape: []int{256, 256}, Form: form, TileBits: 4, Path: path, Durable: true, Versioned: true, Mapped: mapped})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.TransformChunked(randArray(rand.New(rand.NewSource(12)), 256, 256), 5); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	sv, err := OpenServingOpts(path, ServeOptions{CacheBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	start, extent := []int{37, 90}, []int{150, 101}
	var blocks int
	query := func() {
		sv.InvalidateCache()
		if _, blocks, err = sv.RangeSum(start, extent); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ { // reach the pools' steady state
		query()
	}
	got := testing.AllocsPerRun(200, query)
	t.Logf("%.2f allocs per cold range sum of %d blocks", got, blocks)
	if blocks < 2 {
		t.Fatalf("the range sum read %d blocks: no multi-run batch to gate", blocks)
	}
	if got > 1 {
		t.Errorf("%.2f allocs per cold range sum, budget 1", got)
	}
}
