package shiftsplit

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// syncRecorder is a BaseWrap that counts the Sync barriers reaching the raw
// data device.
type syncRecorder struct {
	storage.BlockStore
	syncs int
}

func (r *syncRecorder) Sync() error {
	r.syncs++
	return storage.SyncIfAble(r.BlockStore)
}

// TestEpochFlipSyncsNonDurableDevice pins that every epoch flip of a
// non-durable, file-backed versioned store reaches the device's Sync twice:
// once after the epoch's blocks and table pages, once after its superblock
// slot — the ordering the shadow-paged flip rests on. An idle flush flips
// nothing and syncs nothing.
func TestEpochFlipSyncsNonDurableDevice(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	src := randArray(rng, 16, 16)
	delta := randArray(rng, 4, 4)
	for _, mapped := range []bool{false, true} {
		t.Run(fmt.Sprintf("mapped=%v", mapped), func(t *testing.T) {
			rec := &syncRecorder{}
			st, err := CreateStore(StoreOptions{
				Shape: []int{16, 16}, Form: Standard, TileBits: 2, Versioned: true, Mapped: mapped,
				Path: filepath.Join(t.TempDir(), "flip.wav"),
				BaseWrap: func(bs storage.BlockStore) storage.BlockStore {
					rec.BlockStore = bs
					return rec
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if err := st.TransformChunked(src, 3); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				epoch, syncs := st.CurrentEpoch(), rec.syncs
				if err := st.MergeBlock(CubeBlock(2, i, 1), Transform(delta, Standard)); err != nil {
					t.Fatal(err)
				}
				if flips := st.CurrentEpoch() - epoch; flips != 1 || rec.syncs-syncs != 2 {
					t.Fatalf("merge %d: %d flip(s), %d device sync(s); want one flip and two syncs", i, flips, rec.syncs-syncs)
				}
			}
			syncs := rec.syncs
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
			if rec.syncs != syncs {
				t.Fatalf("an idle flush synced the device %d time(s)", rec.syncs-syncs)
			}
			if got := st.Stats().Syncs; got != int64(rec.syncs) {
				t.Fatalf("Stats counts %d syncs, the device saw %d", got, rec.syncs)
			}
		})
	}
}

// TestRepairQuarantinedServedVersioned drives the repair route of a served
// durable, versioned store — base is the Counting over SplitRW, whose write
// leg is the Locked Durable — on the pread and the mapped device: a frame
// the last batch wrote is rotted on the medium, scrubbed into quarantine,
// and rolled forward from the batch the Durable retains.
func TestRepairQuarantinedServedVersioned(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	src := randArray(rng, 16, 16)
	delta := randArray(rng, 4, 4)
	for _, mapped := range []bool{false, true} {
		t.Run(fmt.Sprintf("mapped=%v", mapped), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "served.wav")
			st, err := CreateStore(StoreOptions{
				Shape: []int{16, 16}, Form: Standard, TileBits: 2, Path: path,
				Durable: true, Versioned: true, Mapped: mapped,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.TransformChunked(src, 3); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if st, err = OpenServingOpts(path, ServeOptions{}); err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			before := readFile(t, path)
			if err := st.MergeBlock(CubeBlock(2, 1, 2), Transform(delta, Standard)); err != nil {
				t.Fatal(err)
			}
			bad := lastChangedFrame(t, before, readFile(t, path), st.BlockSize())
			want, err := st.ReadTransform()
			if err != nil {
				t.Fatal(err)
			}
			flipFrameByte(t, path, bad, st.BlockSize())
			if _, err := st.ScrubOnce(context.Background()); err != nil {
				t.Fatal(err)
			}
			if q := st.Quarantined(); len(q) != 1 || q[0].Block != bad {
				t.Fatalf("quarantine = %v, want block %d", q, bad)
			}
			io := st.Stats()
			repaired, unrepaired, err := st.RepairQuarantined()
			if err != nil {
				t.Fatal(err)
			}
			if repaired != 1 || unrepaired != 0 {
				t.Fatalf("repair = (%d, %d), want (1, 0)", repaired, unrepaired)
			}
			after := st.Stats()
			if reads, writes := after.Reads-io.Reads, after.Writes-io.Writes; reads != 1 || writes != 1 {
				t.Fatalf("repair moved %d read(s) and %d write(s), want 1 and 1", reads, writes)
			}
			got, err := st.ReadTransform()
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range want.Data() {
				if got.Data()[i] != v {
					t.Fatalf("repaired transform differs at %d: %v vs %v", i, got.Data()[i], v)
				}
			}
		})
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// lastChangedFrame returns the highest physical frame whose bytes differ
// between two images of a durable store's data file.
func lastChangedFrame(t *testing.T, before, after []byte, blockSize int) int {
	t.Helper()
	frame := 8 * (blockSize + storage.ChecksumOverhead)
	for id := len(after)/frame - 1; id >= 0; id-- {
		old := make([]byte, frame)
		if id*frame < len(before) {
			copy(old, before[id*frame:])
		}
		if !bytes.Equal(old, after[id*frame:(id+1)*frame]) {
			return id
		}
	}
	t.Fatal("the batch changed no frame")
	return -1
}
