package shiftsplit

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// crashFates are the three things a power cut can do to the writes it
// catches; every campaign below visits each at every mutation index.
var crashFates = []storage.CrashFate{storage.FateDrop, storage.FateTear, storage.FatePersist}

// epochCampaign kills one write on a durable, versioned store at every
// physical mutation it makes, once per crash fate, reopens, and requires
// exactly the pre- or the post-write transform (and epoch), a clean fsck,
// and a store that takes the next merge.
type epochCampaign struct {
	// build makes a fresh store under plan, ready for the write; path is
	// its file.
	build func(name string, plan *storage.CrashPlan) (st *Store, path string)
	// write is the operation the power cut interrupts.
	write     func(*Store) error
	pre, post *Array
	// preEpoch and postEpoch are the epochs the two outcomes must report.
	preEpoch, postEpoch uint64
	form                Form
}

// run sweeps the campaign and returns its trial count and outcome split.
func (c epochCampaign) run(t *testing.T) (trials, preSeen, postSeen int) {
	t.Helper()
	seed := crashSeed(t)
	dryPlan := storage.NewCrashPlan(seed)
	dry, dryPath := c.build("dry.wav", dryPlan)
	preOps := dryPlan.Ops()
	if err := c.write(dry); err != nil {
		t.Fatal(err)
	}
	totalOps := dryPlan.Ops() - preOps
	if err := dry.Close(); err != nil {
		t.Fatal(err)
	}
	if totalOps < 4 {
		t.Fatalf("the write took only %d mutations — campaign is vacuous", totalOps)
	}
	t.Logf("write = %d physical mutations", totalOps)
	// flipped is the mutation whose sync makes the flip durable: the last,
	// except on a store's first flip, which then retires slot 0 (a write
	// per slot block and a sync).
	flipped := totalOps
	if c.preEpoch == 0 {
		rep, err := Fsck(dryPath)
		if err != nil {
			t.Fatal(err)
		}
		flipped -= int64(rep.Versioned.DataBase/2) + 1
	}

	next := CubeBlock(1, 0, 0)
	nextDelta := NewArray(2, 2)
	nextDelta.Set(1, 0, 0)
	for w := int64(1); w <= totalOps; w++ {
		for _, fate := range crashFates {
			trials++
			name := fmt.Sprintf("t%d-%d.wav", w, fate)
			plan := storage.NewCrashPlan(seed + 1000*w + int64(fate))
			st, path := c.build(name, plan)
			plan.ArmAtFate(plan.Ops()+w, fate)
			if err := c.write(st); !errors.Is(err, storage.ErrCrashed) {
				t.Fatalf("trial %s: expected simulated power cut, got %v", name, err)
			}
			_ = st.Close() // dead machine; errors expected

			// Before recovery, fsck finds the store clean or a sealed batch
			// to replay, never corrupt.
			pre, err := Fsck(path)
			if err != nil {
				t.Fatalf("trial %s: fsck before recovery: %v", name, err)
			}
			if len(pre.Corrupt) > 0 || pre.JournalErr != "" || pre.VersionedErr != "" {
				t.Fatalf("trial %s: fsck before recovery calls the store corrupt: %+v", name, pre)
			}

			st2, err := OpenStore(path)
			if err != nil {
				t.Fatalf("trial %s: reopen after crash: %v", name, err)
			}
			got, err := st2.ReadTransform()
			if err != nil {
				t.Fatalf("trial %s: read recovered transform: %v", name, err)
			}
			gotEpoch := st2.CurrentEpoch()
			switch {
			case equalExact(got, c.pre) && gotEpoch == c.preEpoch:
				preSeen++
			case equalExact(got, c.post) && gotEpoch == c.postEpoch:
				postSeen++
			default:
				t.Fatalf("trial %s: recovered epoch %d holds neither the pre-write (epoch %d) nor the post-write (epoch %d) transform",
					name, gotEpoch, c.preEpoch, c.postEpoch)
			}
			if fate == storage.FateDrop && (w <= flipped) != (gotEpoch == c.preEpoch) {
				t.Fatalf("trial %s: a cut at mutation %d of %d (the flip is durable after %d) that loses every unsynced write recovered epoch %d",
					name, w, totalOps, flipped, gotEpoch)
			}
			// A scrub quarantines nothing the cut tore in free space or in
			// the stale slot, and the recovered store takes the next merge
			// over it.
			if n, err := st2.ScrubOnce(context.Background()); err != nil || n != 0 {
				t.Fatalf("trial %s: scrub after recovery quarantined %d blocks (%v): %v", name, n, st2.Quarantined(), err)
			}
			want := got.Clone()
			if err := Merge(want, c.form, next, Transform(nextDelta, c.form)); err != nil {
				t.Fatal(err)
			}
			if err := st2.MergeBlock(next, Transform(nextDelta, c.form)); err != nil {
				t.Fatalf("trial %s: merge after recovery: %v", name, err)
			}
			if err := st2.Close(); err != nil {
				t.Fatalf("trial %s: close recovered store: %v", name, err)
			}
			rep, err := Fsck(path)
			if err != nil {
				t.Fatalf("trial %s: fsck: %v", name, err)
			}
			if !rep.Clean() || rep.Versioned == nil || rep.Versioned.Format != 2 {
				t.Fatalf("trial %s: fsck after the next merge: %+v", name, rep)
			}
			if rep.Versioned.Epoch != gotEpoch+1 {
				t.Fatalf("trial %s: fsck superblock epoch %d, want %d", name, rep.Versioned.Epoch, gotEpoch+1)
			}
			st3, err := OpenStore(path)
			if err != nil {
				t.Fatal(err)
			}
			again, err := st3.ReadTransform()
			if err != nil {
				t.Fatal(err)
			}
			if err := st3.Close(); err != nil {
				t.Fatal(err)
			}
			if !again.EqualApprox(want, 1e-9) {
				t.Fatalf("trial %s: the merge after recovery did not persist", name)
			}
		}
	}
	if preSeen == 0 || postSeen == 0 {
		t.Fatalf("campaign never exercised both outcomes (pre=%d post=%d)", preSeen, postSeen)
	}
	return trials, preSeen, postSeen
}

// TestEpochFlipCrashCampaign is the crash-consistency acceptance test for
// the MVCC epoch layer's shadow-paged flip: kill a maintenance batch at
// every physical mutation — data blocks, table pages, the first sync, the
// superblock slot, the second sync — with the caught writes dropped, torn
// or persisted, reopen, and require the store to come back as exactly the
// old epoch or exactly the new one. A torn slot reads as the old epoch, as
// does a cut between the first sync and the slot write; a cut that loses
// every unsynced write always does. A post-merge recovery leaves both slots
// valid (the set-up's epoch 1 and the merge's epoch 2). Runs on both the
// pread file leg and the mmap leg.
func TestEpochFlipCrashCampaign(t *testing.T) {
	for _, leg := range []struct {
		name   string
		mapped bool
	}{
		{"file", false},
		{"mapped", true},
	} {
		t.Run(leg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			src := randArray(rng, 8, 8)
			delta := randArray(rng, 4, 4)
			blk := CubeBlock(2, 1, 1)
			deltaHat := Transform(delta, Standard)

			// Reference states from the identical in-memory versioned
			// pipeline: recovery must reproduce one of these exactly.
			ref, err := CreateStore(StoreOptions{Shape: []int{8, 8}, Form: Standard, TileBits: 1, Versioned: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.TransformChunked(src, 2); err != nil {
				t.Fatal(err)
			}
			preHat, err := ref.ReadTransform()
			if err != nil {
				t.Fatal(err)
			}
			preEpoch := ref.CurrentEpoch()
			if err := ref.MergeBlock(blk, deltaHat); err != nil {
				t.Fatal(err)
			}
			postHat, err := ref.ReadTransform()
			if err != nil {
				t.Fatal(err)
			}
			postEpoch := ref.CurrentEpoch()
			ref.Close()
			if postEpoch != preEpoch+1 {
				t.Fatalf("reference epochs %d -> %d, want one flip", preEpoch, postEpoch)
			}

			dir := t.TempDir()
			c := epochCampaign{
				build: func(name string, plan *storage.CrashPlan) (*Store, string) {
					path := filepath.Join(dir, name)
					st, err := CreateStore(StoreOptions{
						Shape: []int{8, 8}, Form: Standard, TileBits: 1,
						Path: path, Durable: true, Mapped: leg.mapped,
						Versioned: true, FaultPlan: plan,
					})
					if err != nil {
						t.Fatal(err)
					}
					if err := st.TransformChunked(src, 2); err != nil {
						t.Fatalf("setup transform: %v", err)
					}
					return st, path
				},
				write:    func(st *Store) error { return st.MergeBlock(blk, deltaHat) },
				pre:      preHat,
				post:     postHat,
				preEpoch: preEpoch, postEpoch: postEpoch,
				form: Standard,
			}
			trials, pre, post := c.run(t)
			t.Logf("campaign: %d trials, %d recovered pre-merge, %d post-merge", trials, pre, post)

			// Both slots valid after a completed flip, the newer current.
			st, path := c.build("slots.wav", nil)
			if err := c.write(st); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			rep, err := Fsck(path)
			if err != nil {
				t.Fatal(err)
			}
			v := rep.Versioned
			if v == nil || v.Current != int(postEpoch%2) || v.Slots[0].State != storage.SlotValid || v.Slots[1].State != storage.SlotValid ||
				v.Slots[postEpoch%2].Epoch != postEpoch || v.Slots[preEpoch%2].Epoch != preEpoch {
				t.Fatalf("after a flip the slots read %+v", v)
			}
		})
	}
}

// TestWholeDomainWriteCrashCampaign cuts a whole-domain write (a
// TransformChunked, which rewrites every block and every table page) at
// every mutation, into a populated store and into a fresh one, where the
// write is the store's first flip and also puts an empty epoch 0 in slot
// 0: the store recovers the old transform or the new one. A cut that tears
// that slot 0 leaves a fresh store whose torn slot nothing reads, so the
// scrub and fsck the campaign runs must pass over it.
func TestWholeDomainWriteCrashCampaign(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	src, next := randArray(rng, 8, 8), randArray(rng, 8, 8)
	// The transforms here are the engine's, not the reference kernel's:
	// take them from an in-memory store running the same write.
	hat := func(a *Array) *Array {
		ref, err := CreateStore(StoreOptions{Shape: []int{8, 8}, Form: NonStandard, TileBits: 1, Versioned: true})
		if err != nil {
			t.Fatal(err)
		}
		defer ref.Close()
		if err := ref.TransformChunked(a, 2); err != nil {
			t.Fatal(err)
		}
		h, err := ref.ReadTransform()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	for _, tc := range []struct {
		name     string
		setup    *Array // written before the cut write; nil: a fresh store
		pre      *Array
		preEpoch uint64
	}{
		{"populated", src, hat(src), 1},
		{"fresh", nil, NewArray(8, 8), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c := epochCampaign{
				build: func(name string, plan *storage.CrashPlan) (*Store, string) {
					path := filepath.Join(dir, name)
					st, err := CreateStore(StoreOptions{
						Shape: []int{8, 8}, Form: NonStandard, TileBits: 1,
						Path: path, Durable: true, Versioned: true, FaultPlan: plan,
					})
					if err != nil {
						t.Fatal(err)
					}
					if tc.setup != nil {
						if err := st.TransformChunked(tc.setup, 2); err != nil {
							t.Fatalf("setup transform: %v", err)
						}
					}
					return st, path
				},
				write:    func(st *Store) error { return st.TransformChunked(next, 2) },
				pre:      tc.pre,
				post:     hat(next),
				preEpoch: tc.preEpoch, postEpoch: tc.preEpoch + 1,
				form: NonStandard,
			}
			trials, pre, post := c.run(t)
			t.Logf("campaign: %d trials, %d recovered pre-write, %d post-write", trials, pre, post)
		})
	}
}

// TestUpgradeCrashCampaign cuts the upgrade at open of each v1 fixture at
// every mutation it makes — the old journal's replay, the new store's
// writes and syncs, the rename, the directory sync and the sidecar write —
// under each crash fate. Fsck before the reopen never calls the store
// corrupt, and reads it either in its old layout or as the new format-2
// data file; the reopen finishes or redoes the upgrade and answers exactly
// as the old store did, a clean format-2 store that takes a merge. Where
// the cut left a format-2 data file under a flat sidecar, an open whose
// reads of the superblock slots fail first returns the read error and
// leaves the data file alone.
func TestUpgradeCrashCampaign(t *testing.T) {
	seed := crashSeed(t)
	for _, tc := range v1Fixtures {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := OpenStore(copyV1Fixture(t, tc.name))
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.ReadTransform()
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.Close(); err != nil {
				t.Fatal(err)
			}
			merged := want.Clone()
			if err := Merge(merged, tc.form, v1MergeBlock, v1MergeHat(tc.form)); err != nil {
				t.Fatal(err)
			}
			dry := storage.NewCrashPlan(seed)
			st, err := open(stackSpec{path: copyV1Fixture(t, tc.name), plan: dry})
			if err != nil {
				t.Fatal(err)
			}
			total := dry.Ops()
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if total < 4 {
				t.Fatalf("the upgrade took only %d mutations — campaign is vacuous", total)
			}
			trials, oldSeen, newSeen, sidecarSeen := 0, 0, 0, 0
			for w := int64(1); w <= total; w++ {
				for _, fate := range crashFates {
					trials++
					name := fmt.Sprintf("trial %d-%d", w, fate)
					path := copyV1Fixture(t, tc.name)
					plan := storage.NewCrashPlan(seed + 1000*w + int64(fate))
					plan.ArmAtFate(w, fate)
					if _, err := open(stackSpec{path: path, plan: plan}); !errors.Is(err, storage.ErrCrashed) {
						t.Fatalf("%s: expected simulated power cut, got %v", name, err)
					}
					rep, err := Fsck(path)
					if err != nil {
						t.Fatalf("%s: fsck before the reopen: %v", name, err)
					}
					if len(rep.Corrupt) > 0 || rep.JournalErr != "" || rep.VersionedErr != "" {
						t.Fatalf("%s: fsck before the reopen calls the store corrupt: %+v", name, rep)
					}
					if rep.Versioned != nil && rep.Versioned.Format == 2 {
						newSeen++
					} else {
						oldSeen++
					}
					if rep.Upgrade == string(upgradeSidecar) {
						sidecarSeen++
						failReads := func(bs storage.BlockStore) storage.BlockStore {
							f := storage.NewFaulty(bs)
							f.FailReadAfter(1)
							return f
						}
						if _, err := open(stackSpec{path: path, wrap: failReads}); !errors.Is(err, storage.ErrInjected) {
							t.Fatalf("%s: an open whose slot reads fail after a cut rename: got %v, want the injected fault", name, err)
						}
					}

					st, err := OpenStore(path)
					if err != nil {
						t.Fatalf("%s: reopen: %v", name, err)
					}
					got, err := st.ReadTransform()
					if err != nil {
						t.Fatalf("%s: read: %v", name, err)
					}
					if !equalExact(got, want) {
						t.Fatalf("%s: the reopened store does not answer as the old one", name)
					}
					if _, err := os.Stat(upgradeTemp(path)); !os.IsNotExist(err) {
						t.Fatalf("%s: the reopen left the temporary file (%v)", name, err)
					}
					if err := st.MergeBlock(v1MergeBlock, v1MergeHat(tc.form)); err != nil {
						t.Fatalf("%s: merge after the reopen: %v", name, err)
					}
					if err := st.Close(); err != nil {
						t.Fatal(err)
					}
					rep, err = Fsck(path)
					if err != nil {
						t.Fatal(err)
					}
					if !rep.Clean() || rep.Upgrade != "" || rep.Versioned == nil || rep.Versioned.Format != 2 || rep.WrittenV1 != 0 {
						t.Fatalf("%s: fsck after the merge: %+v", name, rep)
					}
					if st, err = OpenStore(path); err != nil {
						t.Fatal(err)
					}
					got, err = st.ReadTransform()
					if err != nil {
						t.Fatal(err)
					}
					if err := st.Close(); err != nil {
						t.Fatal(err)
					}
					if !got.EqualApprox(merged, 1e-9) {
						t.Fatalf("%s: the merge after the reopen did not persist", name)
					}
				}
			}
			if oldSeen == 0 || newSeen == 0 || !tc.versioned && sidecarSeen == 0 {
				t.Fatalf("campaign never exercised every outcome (old=%d new=%d sidecar=%d)", oldSeen, newSeen, sidecarSeen)
			}
			t.Logf("campaign: %d trials over %d mutations, %d cut in the old layout, %d after the rename (%d under a flat sidecar)", trials, total, oldSeen, newSeen, sidecarSeen)
		})
	}
}

// TestUpgradeCutKeepsNoOldQuarantine gives a format-1 store's sidecar a
// quarantine record, which names a block of the old layout, and cuts its
// upgrade at every mutation: wherever the cut leaves a format-2 data file,
// the sidecar holds no record, and the reopened serving store quarantines
// nothing.
func TestUpgradeCutKeepsNoOldQuarantine(t *testing.T) {
	seed := crashSeed(t)
	prepare := func() string {
		path := copyV1Fixture(t, "versioned.wav")
		m, err := readMeta(path)
		if err != nil {
			t.Fatal(err)
		}
		m.Quarantined = []storage.QuarantineRecord{{Block: 3, Reason: "a block of the format-1 layout"}}
		if err := writeMeta(path, m); err != nil {
			t.Fatal(err)
		}
		return path
	}
	dry := storage.NewCrashPlan(seed)
	st, err := open(stackSpec{path: prepare(), plan: dry})
	if err != nil {
		t.Fatal(err)
	}
	total := dry.Ops()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	newSeen := 0
	for w := int64(1); w <= total; w++ {
		path := prepare()
		plan := storage.NewCrashPlan(seed + w)
		plan.ArmAtFate(w, storage.FatePersist)
		if _, err := open(stackSpec{path: path, plan: plan}); !errors.Is(err, storage.ErrCrashed) {
			t.Fatalf("cut %d: expected simulated power cut, got %v", w, err)
		}
		rep, err := Fsck(path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := readMeta(path)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Versioned.Format == 2 {
			newSeen++
			if len(m.Quarantined) > 0 {
				t.Fatalf("cut %d: a format-2 data file under the format-1 layout's quarantine records %v", w, m.Quarantined)
			}
		}
		srv, err := OpenServingOpts(path, ServeOptions{})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", w, err)
		}
		if q := srv.Quarantined(); len(q) > 0 {
			t.Fatalf("cut %d: the reopened store quarantines %v", w, q)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if newSeen == 0 {
		t.Fatal("no cut left a format-2 data file")
	}
}

// TestGivenUpEpochCrashCampaign cuts, at every mutation, the merge that
// follows a whole-domain write. The previous epoch then holds every block,
// so the merge gives it up — a retired slot over it and a sync — before
// it reuses any of them; a cut anywhere recovers the old transform or the
// new one, and a cut before the retired slot is durable leaves the
// previous epoch whole.
func TestGivenUpEpochCrashCampaign(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	src, next := randArray(rng, 8, 8), randArray(rng, 8, 8)
	block, delta := CubeBlock(1, 1, 0), Transform(randArray(rng, 2, 2), NonStandard)
	dir := t.TempDir()
	build := func(name string, plan *storage.CrashPlan) (*Store, string) {
		path := filepath.Join(dir, name)
		st, err := CreateStore(StoreOptions{
			Shape: []int{8, 8}, Form: NonStandard, TileBits: 1,
			Path: path, Durable: true, Versioned: true, FaultPlan: plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range []*Array{src, next} {
			if err := st.TransformChunked(a, 2); err != nil {
				t.Fatalf("setup transform: %v", err)
			}
		}
		return st, path
	}
	st, _ := build("ref.wav", nil)
	pre, err := st.ReadTransform()
	if err != nil {
		t.Fatal(err)
	}
	before, _ := st.EpochStats()
	if err := st.MergeBlock(block, delta); err != nil {
		t.Fatal(err)
	}
	if after, _ := st.EpochStats(); after.PhysBlocks != before.PhysBlocks {
		t.Fatalf("the merge grew the file %d -> %d: it did not give the previous epoch up", before.PhysBlocks, after.PhysBlocks)
	}
	post, err := st.ReadTransform()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	c := epochCampaign{
		build:    build,
		write:    func(st *Store) error { return st.MergeBlock(block, delta) },
		pre:      pre,
		post:     post,
		preEpoch: 2, postEpoch: 3,
		form: NonStandard,
	}
	trials, preSeen, postSeen := c.run(t)
	t.Logf("campaign: %d trials, %d recovered pre-merge, %d post-merge", trials, preSeen, postSeen)
}
