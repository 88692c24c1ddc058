//go:build ignore

// gen writes the format v1 fixtures in this directory. It must run at a
// commit whose writers still emit v1 (af9ad52, the last one), from the
// repository root:
//
//	go run ./internal/storage/testdata/v1/gen.go internal/storage/testdata/v1
//
// Each fixture is a 16x16 store over cell(i, j), merged as the comments
// below say; v1_fixtures_test.go in the root package holds the same
// functions as its oracle.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/shiftsplit/shiftsplit"
	"github.com/shiftsplit/shiftsplit/internal/storage"
)

func cell(i, j int) float64  { return float64((7*i+3*j)%11) - 5 }
func delta(i, j int) float64 { return float64(i - 2*j) }

// source is the 16x16 array of cell.
func source() *shiftsplit.Array {
	a := shiftsplit.NewArray(16, 16)
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			a.Set(cell(i, j), i, j)
		}
	}
	return a
}

// mergeBlock is the 4x4 block at cells [4,8)x[8,12), and mergeHat the
// transform of delta over it.
var mergeBlock = shiftsplit.CubeBlock(2, 1, 2)

func mergeHat(form shiftsplit.Form) *shiftsplit.Array {
	d := shiftsplit.NewArray(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			d.Set(delta(i, j), i, j)
		}
	}
	return shiftsplit.Transform(d, form)
}

func create(dir, name string, form shiftsplit.Form, versioned bool, plan *storage.CrashPlan) *shiftsplit.Store {
	st, err := shiftsplit.CreateStore(shiftsplit.StoreOptions{
		Shape: []int{16, 16}, Form: form, TileBits: 2,
		Path: filepath.Join(dir, name), Durable: true, Versioned: versioned, FaultPlan: plan,
	})
	check(err)
	check(st.TransformChunked(source(), 2))
	return st
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func main() {
	dir := os.Args[1]

	// durable.wav: standard form, transformed, then delta merged.
	st := create(dir, "durable.wav", shiftsplit.Standard, false, nil)
	check(st.MergeBlock(mergeBlock, mergeHat(shiftsplit.Standard)))
	check(st.Close())

	// versioned.wav: non-standard form on the epoch layer, transformed.
	check(create(dir, "versioned.wav", shiftsplit.NonStandard, true, nil).Close())

	// sealed.wav: standard form, transformed, then a merge of delta cut by
	// a power failure at its first data-file write, after the journal
	// sealed it: opening must replay it. A merge of n blocks is n journal
	// records, a sync, the commit record, a sync, then the data writes.
	dry := storage.NewCrashPlan(1)
	st = create(dir, "dry.wav", shiftsplit.Standard, false, dry)
	before := dry.Ops()
	check(st.MergeBlock(mergeBlock, mergeHat(shiftsplit.Standard)))
	n := (dry.Ops() - before - 6) / 2
	check(st.Close())
	for _, f := range []string{"dry.wav", "dry.wav.wal", "dry.wav.meta.json"} {
		check(os.Remove(filepath.Join(dir, f)))
	}
	plan := storage.NewCrashPlan(1)
	st = create(dir, "sealed.wav", shiftsplit.Standard, false, plan)
	plan.ArmAt(plan.Ops() + n + 4)
	if err := st.MergeBlock(mergeBlock, mergeHat(shiftsplit.Standard)); err == nil {
		check(fmt.Errorf("the armed merge did not crash"))
	}
	_ = st.Close() // the machine is dead; only the handles are released
}
