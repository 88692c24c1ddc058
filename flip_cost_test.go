package shiftsplit

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// TestShadowFlipDeviceCost counts what one 16×16 MergeBlock costs the
// devices of a durable, versioned file store: a Counting slid under the
// checksum layer as the BaseWrap sees the data device, and a disarmed
// CrashPlan counts every physical mutation of both the data device and the
// journal, so their difference is the journal's. The flip must sync the
// data device exactly twice, write the journal never (the ".wal" sidecar
// stays empty), and make exactly one device write per block the store's
// Counting counts. Before the flip was shadow-paged, the same merges cost
// 1 data-device sync and 52 (standard) and 29 (non-standard) journal
// mutations — a post-image record per block, the commit record, two syncs,
// the truncation and its sync — beside 47 and 24 writes on both counters;
// now 44 and 23 (the packed table dirties fewer pages).
func TestShadowFlipDeviceCost(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	src := randArray(rng, 64, 64)
	delta := randArray(rng, 16, 16)
	for _, form := range []Form{Standard, NonStandard} {
		t.Run(form.String(), func(t *testing.T) {
			var dev *storage.Counting
			plan := storage.NewCrashPlan(1)
			path := filepath.Join(t.TempDir(), "cost.wav")
			st, err := CreateStore(StoreOptions{
				Shape: []int{64, 64}, Form: form, TileBits: 2, Path: path,
				Durable: true, Versioned: true, FaultPlan: plan,
				BaseWrap: func(bs storage.BlockStore) storage.BlockStore {
					dev = storage.NewCounting(bs)
					return dev
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if err := st.TransformChunked(src, 4); err != nil {
				t.Fatal(err)
			}
			st.ResetStats()
			devBefore, opsBefore := dev.Stats(), plan.Ops()
			if err := st.MergeBlock(CubeBlock(4, 1, 2), Transform(delta, form)); err != nil {
				t.Fatal(err)
			}
			io, d := st.Stats(), dev.Stats().Sub(devBefore)
			journal := plan.Ops() - opsBefore - d.Writes - d.Syncs
			t.Logf("%v: store writes %d, device writes %d, device syncs %d, journal mutations %d", form, io.Writes, d.Writes, d.Syncs, journal)
			if d.Syncs != 2 {
				t.Errorf("the flip synced the data device %d times, want 2", d.Syncs)
			}
			if journal != 0 {
				t.Errorf("the flip made %d journal mutations, want none", journal)
			}
			if d.Writes != io.Writes {
				t.Errorf("the device took %d writes for the %d blocks the store counted", d.Writes, io.Writes)
			}
			if fi, err := os.Stat(storage.WalPath(path)); err != nil || fi.Size() != 0 {
				t.Errorf("journal sidecar after the flip: %v, %v; want an empty file", fi, err)
			}
		})
	}
}
