package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// campaignSeed lets CI pin the tear/drop RNG: SHIFTSPLIT_CRASH_SEED=n.
func campaignSeed(t *testing.T) int64 {
	t.Helper()
	if s := os.Getenv("SHIFTSPLIT_CRASH_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad SHIFTSPLIT_CRASH_SEED %q: %v", s, err)
		}
		return n
	}
	return 1
}

// campaignBatches is the deterministic workload: batch A (the committed
// pre-state) and batch B (the maintenance batch the campaign kills).
// B overwrites part of A and extends the store.
func campaignBatches(blockSize int) (a, b map[int][]float64) {
	a = make(map[int][]float64)
	b = make(map[int][]float64)
	for id := 0; id < 5; id++ {
		blk := make([]float64, blockSize)
		for k := range blk {
			blk[k] = float64(100*id + k + 1)
		}
		a[id] = blk
	}
	for _, id := range []int{1, 3, 6, 7} {
		blk := make([]float64, blockSize)
		for k := range blk {
			blk[k] = -float64(1000*id + k + 1)
		}
		b[id] = blk
	}
	return a, b
}

func applyBatch(t *testing.T, d *Durable, batch map[int][]float64) error {
	t.Helper()
	ids := make([]int, 0, len(batch))
	for id := range batch {
		ids = append(ids, id)
	}
	// Deterministic staging order (the commit sorts anyway).
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if ids[j] < ids[i] {
				ids[i], ids[j] = ids[j], ids[i]
			}
		}
	}
	for _, id := range ids {
		if err := d.WriteBlock(id, batch[id]); err != nil {
			return err
		}
	}
	return d.Commit()
}

// expectedStates returns the only two legal post-crash states: pre (batch A
// alone) and post (A overlaid with B).
func expectedStates(a, b map[int][]float64) (pre, post map[int][]float64) {
	pre = a
	post = make(map[int][]float64)
	for id, blk := range a {
		post[id] = blk
	}
	for id, blk := range b {
		post[id] = blk
	}
	return pre, post
}

func readState(t *testing.T, d *Durable, maxBlock int) map[int][]float64 {
	t.Helper()
	out := make(map[int][]float64)
	buf := make([]float64, d.BlockSize())
	for id := 0; id <= maxBlock; id++ {
		if err := d.ReadBlock(id, buf); err != nil {
			t.Fatalf("read block %d after recovery: %v", id, err)
		}
		zero := true
		for _, v := range buf {
			if v != 0 {
				zero = false
				break
			}
		}
		if !zero {
			out[id] = append([]float64(nil), buf...)
		}
	}
	return out
}

func sameState(got, want map[int][]float64) bool {
	if len(got) != len(want) {
		return false
	}
	for id, blk := range want {
		g, ok := got[id]
		if !ok {
			return false
		}
		for k := range blk {
			if g[k] != blk[k] {
				return false
			}
		}
	}
	return true
}

// TestCrashCampaignDurable kills the commit of a block batch at every
// physical mutation index — dropped, torn, or persisted in-flight write,
// partially persisted fsync, lost truncate — and asserts that reopening
// always recovers to exactly the pre-batch or post-batch contents, with a
// clean fsck.
func TestCrashCampaignDurable(t *testing.T) {
	const blockSize = 6
	seed := campaignSeed(t)
	batchA, batchB := campaignBatches(blockSize)
	pre, post := expectedStates(batchA, batchB)

	// Dry run: how many physical mutations does the B commit take?
	dry := NewCrashPlan(seed)
	dir := t.TempDir()
	path := filepath.Join(dir, "dry.dat")
	d, err := CreateDurable(path, blockSize, dry)
	if err != nil {
		t.Fatal(err)
	}
	if err := applyBatch(t, d, batchA); err != nil {
		t.Fatal(err)
	}
	opsA := dry.Ops()
	if err := applyBatch(t, d, batchB); err != nil {
		t.Fatal(err)
	}
	opsB := dry.Ops() - opsA
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if opsB < 10 {
		t.Fatalf("suspiciously small batch: %d mutations", opsB)
	}
	t.Logf("batch B = %d physical mutations (A took %d)", opsB, opsA)

	preSeen, postSeen := 0, 0
	for w := int64(1); w <= opsB; w++ {
		path := filepath.Join(dir, fmt.Sprintf("t%d.dat", w))
		plan := NewCrashPlan(seed + w)
		d, err := CreateDurable(path, blockSize, plan)
		if err != nil {
			t.Fatal(err)
		}
		if err := applyBatch(t, d, batchA); err != nil {
			t.Fatalf("trial %d: batch A: %v", w, err)
		}
		plan.ArmAt(plan.Ops() + w)
		err = applyBatch(t, d, batchB)
		if w < opsB && !errors.Is(err, ErrCrashed) {
			t.Fatalf("trial %d: expected crash, got %v", w, err)
		}
		_ = d.Close() // dead machine: close file handles, errors expected

		// Power restored: reopen and verify.
		d2, err := OpenDurable(path, blockSize, nil)
		if err != nil {
			t.Fatalf("trial %d: reopen: %v", w, err)
		}
		got := readState(t, d2, 8)
		switch {
		case sameState(got, pre):
			preSeen++
		case sameState(got, post):
			postSeen++
		default:
			t.Fatalf("trial %d: hybrid state after recovery: %v", w, got)
		}
		if err := d2.Close(); err != nil {
			t.Fatalf("trial %d: close recovered store: %v", w, err)
		}
		rep, err := Fsck(path, blockSize)
		if err != nil {
			t.Fatalf("trial %d: fsck: %v", w, err)
		}
		if !rep.Clean() {
			t.Fatalf("trial %d: fsck not clean: %+v", w, rep)
		}
	}
	t.Logf("campaign: %d trials, %d recovered to pre, %d to post", opsB, preSeen, postSeen)
	if preSeen == 0 || postSeen == 0 {
		t.Fatalf("campaign never exercised both outcomes (pre=%d post=%d)", preSeen, postSeen)
	}
}

// TestCrashStoreTearIsDetected checks the fault injector itself: a torn
// block write must be caught by the checksum layer on read.
func TestCrashStoreTearIsDetected(t *testing.T) {
	plan := NewCrashPlan(3)
	inner := NewMemStore(8 + ChecksumOverhead)
	cs := NewCrashStore(inner, plan)
	chk, err := NewChecksummed(cs)
	if err != nil {
		t.Fatal(err)
	}
	// Establish a synced block, then tear an overwrite of it.
	if err := chk.WriteBlock(0, []float64{1, 1, 1, 1, 1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := cs.Sync(); err != nil {
		t.Fatal(err)
	}
	tornSeen := false
	for attempt := int64(0); attempt < 20 && !tornSeen; attempt++ {
		p2 := NewCrashPlan(100 + attempt)
		inner2 := NewMemStore(8 + ChecksumOverhead)
		// Copy the established state onto the fresh medium.
		raw := make([]float64, inner.BlockSize())
		if err := inner.ReadBlock(0, raw); err != nil {
			t.Fatal(err)
		}
		if err := inner2.WriteBlock(0, raw); err != nil {
			t.Fatal(err)
		}
		cs2 := NewCrashStore(inner2, p2)
		chk2, err := NewChecksummed(cs2)
		if err != nil {
			t.Fatal(err)
		}
		p2.ArmAt(1)
		if err := chk2.WriteBlock(0, []float64{2, 2, 2, 2, 2, 2, 2, 2}); !errors.Is(err, ErrCrashed) {
			t.Fatalf("armed write returned %v", err)
		}
		// Inspect the medium directly with a fresh checksummed view.
		chk3, err := NewChecksummed(inner2)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]float64, 8)
		err = chk3.ReadBlock(0, buf)
		switch {
		case err == nil:
			// Dropped (old survives) or fully persisted (new survives):
			// both are checksum-clean.
			if buf[0] != 1 && buf[0] != 2 {
				t.Fatalf("medium holds unexpected value %g", buf[0])
			}
		case errors.Is(err, ErrChecksum):
			tornSeen = true // the tear was caught
		default:
			t.Fatalf("unexpected error %v", err)
		}
	}
	if !tornSeen {
		t.Fatal("20 seeds never produced a detectable torn write")
	}
}
