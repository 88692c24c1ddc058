package transform

import (
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/appender"
	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
)

// TestAllocBudget is the CI allocation gate (run by `make bench-smoke`):
// it replays the maintenance workloads (the chunked engines at workers=1)
// and fails when allocs/op regress more than 20% past their budgets.
// Lowering a budget after an allocation win is an edit to allocBudgets.
const allocBudgetSlack = 1.20

// allocBudgets are the workers=1 allocs/op of BenchmarkChunkedStandard and
// BenchmarkChunkedNonStandard (256x256, chunk bits 5, tile bits 2), and the
// allocs/op of internal/appender's BenchmarkAppender/aligned (eight
// [32,256] slabs into a 256x256 domain, tile bits 2).
var allocBudgets = map[string]float64{
	"ChunkedStandard/workers=1":    8395,
	"ChunkedNonStandard/workers=1": 5613,
	"Appender":                     8589,
}

// overAllocBudget reports the limit for key (its budget +20%) and whether
// got exceeds it. A key with no budget has limit 0, so a misspelt key
// fails instead of passing silently.
func overAllocBudget(key string, got float64) (limit float64, over bool) {
	limit = allocBudgets[key] * allocBudgetSlack
	return limit, got > limit
}

// checkAllocBudget runs workload key as its own subtest, so a workload
// that fails does not stop the others from being measured.
func checkAllocBudget(t *testing.T, key string, run func(t *testing.T)) {
	t.Run(key, func(t *testing.T) {
		run(t) // warm pools and the page heap outside the measured runs
		got := testing.AllocsPerRun(3, func() { run(t) })
		if limit, over := overAllocBudget(key, got); over {
			t.Errorf("%.0f allocs/op exceeds budget %.0f (+20%% = %.0f); if intentional, raise allocBudgets",
				got, allocBudgets[key], limit)
		} else {
			t.Logf("%.0f allocs/op (budget %.0f, limit %.0f)", got, allocBudgets[key], limit)
		}
	})
}

func TestAllocBudgetRule(t *testing.T) {
	for key, budget := range allocBudgets {
		for _, c := range []struct {
			got  float64
			over bool
		}{
			{budget, false},
			{budget * allocBudgetSlack, false},
			{budget*allocBudgetSlack + 1, true},
		} {
			if _, over := overAllocBudget(key, c.got); over != c.over {
				t.Errorf("%s: overAllocBudget(%.0f) = %v, want %v", key, c.got, over, c.over)
			}
		}
	}
	if _, over := overAllocBudget("NoSuchWorkload", 1); !over {
		t.Error("a key with no budget passed the gate")
	}
}

func TestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector: allocation counts are not the product's")
	}

	srcStd := dataset.Dense([]int{256, 256}, 1)
	checkAllocBudget(t, "ChunkedStandard/workers=1", func(t *testing.T) {
		tiling := tile.NewStandard([]int{8, 8}, 2)
		st, err := tile.NewStore(storage.NewMemStore(tiling.BlockSize()), tiling)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ChunkedStandard(srcStd, 5, st, 1); err != nil {
			t.Fatal(err)
		}
	})

	srcNon := dataset.Dense([]int{256, 256}, 2)
	checkAllocBudget(t, "ChunkedNonStandard/workers=1", func(t *testing.T) {
		tiling := tile.NewNonStandard(8, 2, 2)
		st, err := tile.NewStore(storage.NewMemStore(tiling.BlockSize()), tiling)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ChunkedNonStandard(srcNon, 5, st, 1); err != nil {
			t.Fatal(err)
		}
	})

	slab := dataset.Dense([]int{32, 256}, 5)
	checkAllocBudget(t, "Appender", func(t *testing.T) {
		a, err := appender.New([]int{256, 256}, 2)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 8; step++ {
			if _, err := a.Append(0, slab); err != nil {
				t.Fatal(err)
			}
		}
	})
}
