//go:build ignore

// gen_converting writes converting.wav: versioned.wav cut by a power
// failure while the first merge converted it from format 1 to format 2.
// The writer that converted in the flip is gone, so this must run at a
// commit that still has it (86870a5, the last one), from the repository
// root, with versioned.wav already in the directory:
//
//	go run ./internal/storage/testdata/v1/gen_converting.go internal/storage/testdata/v1
//
// That writer put the conversion's data blocks and table pages straight on
// the data file and its new superblock slot, which overwrites format 1's
// superblock, through the journal. The cut tears the first write that
// applies the sealed batch to the data file: the journal holds the sealed
// slot, block 0 holds a torn frame, and opening replays the slot. The
// merge is mergeHat(NonStandard) over mergeBlock, as in gen.go.
package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"github.com/shiftsplit/shiftsplit"
	"github.com/shiftsplit/shiftsplit/internal/storage"
)

func delta(i, j int) float64 { return float64(i - 2*j) }

var mergeBlock = shiftsplit.CubeBlock(2, 1, 2)

func mergeHat() *shiftsplit.Array {
	d := shiftsplit.NewArray(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			d.Set(delta(i, j), i, j)
		}
	}
	return shiftsplit.Transform(d, shiftsplit.NonStandard)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// copyStore copies versioned.wav's three files to name.
func copyStore(dir, name string) string {
	for _, suffix := range []string{"", ".wal", ".meta.json"} {
		b, err := os.ReadFile(filepath.Join(dir, "versioned.wav"+suffix))
		check(err)
		check(os.WriteFile(filepath.Join(dir, name+suffix), b, 0o644))
	}
	return filepath.Join(dir, name)
}

// merge opens path with the data device under plan (the journal is not
// wrapped, so its writes and syncs are real and uncounted) and merges.
func merge(path string, plan *storage.CrashPlan) error {
	st, err := shiftsplit.OpenServingOpts(path, shiftsplit.ServeOptions{
		BaseWrap: func(bs storage.BlockStore) storage.BlockStore { return storage.NewCrashStore(bs, plan) },
	})
	check(err)
	err = st.MergeBlock(mergeBlock, mergeHat())
	_ = st.Close() // after a cut the machine is dead; only the handles are released
	return err
}

func main() {
	dir := os.Args[1]

	// The dry run counts the data device's mutations. The converting
	// commit ends with the journaled slot's apply: one write per slot
	// block (one here), then a sync.
	dry := storage.NewCrashPlan(1)
	check(merge(copyStore(dir, "dry.wav"), dry))
	for _, suffix := range []string{"", ".wal", ".meta.json"} {
		check(os.Remove(filepath.Join(dir, "dry.wav"+suffix)))
	}
	plan := storage.NewCrashPlan(1)
	plan.ArmAtFate(dry.Ops()-1, storage.FateTear)
	if err := merge(copyStore(dir, "converting.wav"), plan); !errors.Is(err, storage.ErrCrashed) {
		check(fmt.Errorf("the armed merge did not crash: %v", err))
	}
}
