package shiftsplit

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
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
	// journaled marks a write that commits through the journal, after whose
	// seal even a cut that loses every unsynced write recovers the post
	// state; a shadow-paged flip never does.
	journaled bool
}

// run sweeps the campaign and returns its trial count and outcome split.
func (c epochCampaign) run(t *testing.T) (trials, preSeen, postSeen int) {
	t.Helper()
	seed := crashSeed(t)
	dryPlan := storage.NewCrashPlan(seed)
	dry, _ := c.build("dry.wav", dryPlan)
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
			if fate == storage.FateDrop && !c.journaled && gotEpoch != c.preEpoch {
				t.Fatalf("trial %s: a cut that loses every unsynced write recovered epoch %d", name, gotEpoch)
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

// TestV1ConversionCrashCampaign cuts the first merge into the format-1
// versioned fixture — the commit that converts it to format 2, its new
// superblock through the journal — at every mutation: the store reopens
// as the format-1 store it was or as the converted, merged one.
func TestV1ConversionCrashCampaign(t *testing.T) {
	fixture := func() (*Store, string) {
		path := copyV1Fixture(t, "versioned.wav")
		st, err := OpenStore(path)
		if err != nil {
			t.Fatal(err)
		}
		return st, path
	}
	st, _ := fixture()
	pre, err := st.ReadTransform()
	if err != nil {
		t.Fatal(err)
	}
	preEpoch := st.CurrentEpoch()
	if err := st.MergeBlock(v1MergeBlock, v1MergeHat(NonStandard)); err != nil {
		t.Fatal(err)
	}
	post, err := st.ReadTransform()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	c := epochCampaign{
		build: func(_ string, plan *storage.CrashPlan) (*Store, string) {
			path := copyV1Fixture(t, "versioned.wav")
			m, err := readMeta(path)
			if err != nil {
				t.Fatal(err)
			}
			st, err := assemble(stackSpec{meta: m, path: path, plan: plan})
			if err != nil {
				t.Fatal(err)
			}
			return st, path
		},
		write:    func(st *Store) error { return st.MergeBlock(v1MergeBlock, v1MergeHat(NonStandard)) },
		pre:      pre,
		post:     post,
		preEpoch: preEpoch, postEpoch: preEpoch + 1,
		form: NonStandard, journaled: true,
	}
	trials, preSeen, postSeen := c.run(t)
	t.Logf("campaign: %d trials, %d recovered format 1, %d converted", trials, preSeen, postSeen)
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
