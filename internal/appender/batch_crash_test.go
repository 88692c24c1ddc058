package appender

import (
	"errors"
	"path/filepath"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/wavelet"
)

// groupSlab is the i-th member of the crash campaign's append group: a
// 4x1 column with values distinct per member, so a partially applied
// group would be visible as a hybrid transform.
func groupSlab(i int) *ndarray.Array {
	s := ndarray.New(4, 1)
	for r := 0; r < 4; r++ {
		s.Set(float64(100*(i+1)+r), r, 0)
	}
	return s
}

// groupTransform returns the standard transform of the [4,8] domain
// holding the base slab, plus the whole 4-slab group when withGroup.
func groupTransform(withGroup bool) *ndarray.Array {
	full := ndarray.New(4, 8)
	full.SubPaste(baseSlab(), []int{0, 0})
	if withGroup {
		for i := 0; i < 4; i++ {
			full.SubPaste(groupSlab(i), []int{0, 4 + i})
		}
	}
	return wavelet.TransformStandard(full)
}

// TestGroupCommitCrashIsAtomic is the torn-group-commit campaign: a
// 4-slab AppendBatch (one journal group, no expansion — the domain
// already fits) is power-cut at every physical mutation index, the media
// recovered, and the recovered transform must be exactly the pre-batch
// or the post-batch state. A hybrid — some group members visible,
// others missing — is the bug this campaign exists to catch. The
// in-process appender must also agree: a failed batch rolls the `used`
// frontier back, so it never claims cells the journal did not seal.
func TestGroupCommitCrashIsAtomic(t *testing.T) {
	buildBase := func(mems *durableMems) *Appender {
		a, err := NewWithBacking([]int{4, 8}, 1, mems.backing)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Append(1, baseSlab()); err != nil {
			t.Fatal(err)
		}
		return a
	}
	pre := groupTransform(false)
	post := groupTransform(true)

	// Dry run: count the group commit's physical mutations.
	dryMems := newDurableMems()
	dryMems.plan = storage.NewCrashPlan(1)
	aDry := buildBase(dryMems)
	preOps := dryMems.plan.Ops()
	if st, err := aDry.AppendBatch(1, groupSlabs()); err != nil {
		t.Fatal(err)
	} else if st.Slabs != 4 || st.Expansions != 0 {
		t.Fatalf("dry run: %+v, want 4 slabs and no expansion", st)
	}
	totalOps := dryMems.plan.Ops() - preOps
	if totalOps < 4 {
		t.Fatalf("group commit took only %d mutations", totalOps)
	}

	var preSeen, postSeen int
	for w := int64(1); w <= totalOps; w++ {
		mems := newDurableMems()
		mems.plan = storage.NewCrashPlan(1000 + w)
		a := buildBase(mems)
		mems.plan.ArmAt(mems.plan.Ops() + w)
		_, err := a.AppendBatch(1, groupSlabs())
		if w < totalOps && !errors.Is(err, storage.ErrCrashed) {
			t.Fatalf("trial %d: expected crash, got %v", w, err)
		}
		if err != nil {
			// The in-process appender must not claim unsealed cells: a
			// failed batch reverts the frontier to the pre-batch extent.
			if used := a.Used(); used[1] != 4 {
				t.Fatalf("trial %d: used=%v after failed batch, want frontier 4", w, used)
			}
		}
		d, rerr := mems.reopen()
		if rerr != nil {
			t.Fatalf("trial %d: recover: %v", w, rerr)
		}
		switch {
		case matchesTransform(t, d, []int{4, 8}, pre):
			preSeen++
		case matchesTransform(t, d, []int{4, 8}, post):
			postSeen++
		default:
			t.Fatalf("trial %d: torn group visible after recovery", w)
		}
		d.Close()
	}
	t.Logf("group-commit campaign: %d trials, pre=%d post=%d", totalOps, preSeen, postSeen)
	if preSeen == 0 || postSeen == 0 {
		t.Fatalf("campaign did not exercise both outcomes (pre=%d post=%d)", preSeen, postSeen)
	}
}

func groupSlabs() []*ndarray.Array {
	slabs := make([]*ndarray.Array, 4)
	for i := range slabs {
		slabs[i] = groupSlab(i)
	}
	return slabs
}

// TestGroupCommitCrashFsckOnDisk runs the same torn-group power cut over
// a real file-backed durable store and drives recovery the way an
// operator would: fsck first (read-only verdict on whether a sealed
// group awaits replay), then reopen. A sealed journal must recover to
// the full post-batch state; an unsealed one must leave the pre-batch
// state — and in both cases the recovered frontier agrees with the
// journal's verdict.
func TestGroupCommitCrashFsckOnDisk(t *testing.T) {
	crashOnDisk(t, []int{4, 8}, groupSlabs, []int{4, 8}, groupTransform(false), groupTransform(true))
}

// TestExpandingGroupCrashFsckOnDisk is the on-disk leg for a group that
// doubles the domain: the expansion's writes and the merge's share the
// group's one journal group, so fsck and reopen find the [4,4] transform
// or the [4,8] one with the slab in it, nothing between.
func TestExpandingGroupCrashFsckOnDisk(t *testing.T) {
	group := func() []*ndarray.Array { return []*ndarray.Array{secondSlab()} }
	crashOnDisk(t, []int{4, 4}, group, []int{4, 8}, transformIn([]int{4, 4}, false), transformIn([]int{4, 8}, true))
}

// crashOnDisk cuts power at a handful of points across one AppendBatch on
// a file-backed durable store — an appender of shape holding baseSlab,
// appending group() along dimension 1, which leaves the domain postShape —
// and requires fsck then reopen to recover the pre-batch transform pre
// (under shape) or the post-batch one post (under postShape), pre only
// where fsck saw no sealed group.
func crashOnDisk(t *testing.T, shape []int, group func() []*ndarray.Array, postShape []int, pre, post *ndarray.Array) {
	t.Helper()
	const blockSize = 1 << 2 // tile bits 1 over 2 dims: 2^(1*2) coefficients
	run := func(dir string, plan *storage.CrashPlan, crashAt int64) (int64, error) {
		a, err := NewWithBacking(shape, 1, func(_, bs int) (storage.BlockStore, error) {
			return storage.CreateDurable(filepath.Join(dir, "append.wav"), bs, plan)
		})
		if err != nil {
			return 0, err
		}
		if _, err := a.Append(1, baseSlab()); err != nil {
			return 0, err
		}
		preOps := plan.Ops()
		if crashAt > 0 {
			plan.ArmAt(preOps + crashAt)
		}
		_, err = a.AppendBatch(1, group())
		return plan.Ops() - preOps, err
	}

	totalOps, err := run(t.TempDir(), storage.NewCrashPlan(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	// A handful of crash points across the window keeps the on-disk leg
	// fast; the exhaustive sweeps run on the in-memory campaigns.
	points := []int64{1, totalOps / 4, totalOps / 2, 3 * totalOps / 4, totalOps - 1}
	for _, w := range points {
		if w < 1 {
			continue
		}
		dir := t.TempDir()
		if _, err := run(dir, storage.NewCrashPlan(2000+w), w); !errors.Is(err, storage.ErrCrashed) {
			t.Fatalf("crash point %d: expected simulated power cut, got %v", w, err)
		}
		path := filepath.Join(dir, "append.wav")
		rep, err := storage.Fsck(path, blockSize)
		if err != nil {
			t.Fatalf("crash point %d: fsck: %v", w, err)
		}
		if rep.JournalErr != "" {
			t.Fatalf("crash point %d: unrecoverable journal: %s", w, rep.JournalErr)
		}
		d, err := storage.OpenDurable(path, blockSize, nil)
		if err != nil {
			t.Fatalf("crash point %d: reopen: %v", w, err)
		}
		switch {
		case matchesTransform(t, d, postShape, post):
			// Fine either way: a sealed journal replays to post, and a
			// fully applied + truncated journal also shows post.
		case matchesTransform(t, d, shape, pre):
			if rep.NeedsRecovery() {
				t.Fatalf("crash point %d: fsck saw a sealed group but recovery produced the pre-batch state", w)
			}
		default:
			t.Fatalf("crash point %d: torn group visible after fsck+reopen", w)
		}
		d.Close()
	}
}
