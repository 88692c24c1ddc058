package storage

import (
	"context"
	"testing"
	"time"
)

// rotFrame corrupts one stored frame of a Checksummed-over-MemStore stack
// by flipping a payload bit directly in the inner store.
func rotFrame(t *testing.T, inner *MemStore, id int) {
	t.Helper()
	frame := make([]float64, inner.BlockSize())
	if err := inner.ReadBlock(id, frame); err != nil {
		t.Fatal(err)
	}
	frame[0] += 1
	if err := inner.WriteBlock(id, frame); err != nil {
		t.Fatal(err)
	}
}

func TestQuarantineRegistry(t *testing.T) {
	q := NewQuarantine()
	var changes int
	q.OnChange(func(recs []QuarantineRecord) { changes++ })
	if !q.Add(3, "rot") || q.Add(3, "again") {
		t.Fatal("Add dedup broken")
	}
	if !q.Has(3) || q.Has(4) || q.Len() != 1 {
		t.Fatal("membership broken")
	}
	q.Add(1, "torn")
	snap := q.Snapshot()
	if len(snap) != 2 || snap[0].Block != 1 || snap[1].Block != 3 || snap[1].Reason != "rot" {
		t.Fatalf("snapshot = %+v", snap)
	}
	if !q.Remove(3) || q.Remove(3) {
		t.Fatal("Remove broken")
	}
	if changes != 3 { // add, add, remove (dup add and missing remove are silent)
		t.Fatalf("onChange fired %d times, want 3", changes)
	}
	q.Replace([]QuarantineRecord{{Block: 7, Reason: "loaded"}})
	if !q.Has(7) || q.Has(1) || changes != 3 {
		t.Fatal("Replace must load wholesale without firing onChange")
	}
}

func TestVerifyBlocksCollectsAllCorrupt(t *testing.T) {
	inner := NewMemStore(6)
	cs, err := NewChecksummed(inner)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 10; id++ {
		if err := cs.WriteBlock(id, []float64{float64(id), 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	rotFrame(t, inner, 2)
	rotFrame(t, inner, 7)
	ids := make([]int, 10)
	for i := range ids {
		ids[i] = i
	}
	corrupt, err := VerifyBlocksOf(cs, ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(corrupt) != 2 || corrupt[0] != 2 || corrupt[1] != 7 {
		t.Fatalf("corrupt = %v, want [2 7]", corrupt)
	}
	// Unwritten blocks verify clean.
	corrupt, err = VerifyBlocksOf(cs, []int{100, 101})
	if err != nil || len(corrupt) != 0 {
		t.Fatalf("virgin blocks: corrupt=%v err=%v", corrupt, err)
	}
}

func TestScrubberQuarantinesAndHeals(t *testing.T) {
	inner := NewMemStore(6)
	cs, err := NewChecksummed(inner)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	payload := []float64{1, 2, 3, 4}
	for id := 0; id < n; id++ {
		if err := cs.WriteBlock(id, payload); err != nil {
			t.Fatal(err)
		}
	}
	rotFrame(t, inner, 5)
	rotFrame(t, inner, 33)
	q := NewQuarantine()
	sc, err := NewScrubber(cs, func() int { return n }, q, ScrubberOptions{BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := sc.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if bad != 2 || !q.Has(5) || !q.Has(33) {
		t.Fatalf("quarantined %d (%v), want blocks 5 and 33", bad, q.Snapshot())
	}
	st := sc.Stats()
	if st.Passes != 1 || st.Scanned != n || st.Corrupt != 2 || st.Healed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Rewrite block 5 cleanly; the next pass must heal it.
	if err := cs.WriteBlock(5, payload); err != nil {
		t.Fatal(err)
	}
	bad, err = sc.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if bad != 1 || q.Has(5) || !q.Has(33) {
		t.Fatalf("after heal: %d quarantined (%v)", bad, q.Snapshot())
	}
	if st = sc.Stats(); st.Healed != 1 || st.Corrupt != 2 {
		t.Fatalf("stats after heal = %+v", st)
	}
}

// TestScrubberSkipsDeadBlocks: with a Live filter (a versioned store's
// Committed), a torn frame in a block nothing reads is neither verified
// nor quarantined, and a quarantined block that stopped being live is
// released.
func TestScrubberSkipsDeadBlocks(t *testing.T) {
	inner := NewMemStore(6)
	cs, err := NewChecksummed(inner)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for id := 0; id < n; id++ {
		if err := cs.WriteBlock(id, []float64{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
	}
	rotFrame(t, inner, 4)  // live: quarantined
	rotFrame(t, inner, 11) // free: ignored
	free := map[int]bool{11: true, 12: true}
	q := NewQuarantine()
	q.Add(12, "left from an earlier pass")
	sc, err := NewScrubber(cs, func() int { return n }, q, ScrubberOptions{Live: func(id int) bool { return !free[id] }})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := sc.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if bad != 1 || !q.Has(4) || q.Has(11) || q.Has(12) {
		t.Fatalf("quarantine after the pass: %v, want block 4 alone", q.Snapshot())
	}
	if st := sc.Stats(); st.Scanned != n-2 || st.Healed != 1 {
		t.Fatalf("stats = %+v, want %d scanned and 1 healed", st, n-2)
	}
}

func TestScrubberRateLimit(t *testing.T) {
	cs, err := NewChecksummed(NewMemStore(6))
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 64; id++ {
		if err := cs.WriteBlock(id, []float64{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
	}
	var slept time.Duration
	sc, err := NewScrubber(cs, func() int { return 64 }, NewQuarantine(), ScrubberOptions{
		BatchSize:        16,
		RateBlocksPerSec: 1600, // 16-block batch every 10ms
		Sleep:            func(d time.Duration) { slept += d },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	// 64 blocks at 1600/s should take ~40ms; the verify itself is nearly
	// instant, so nearly all of it shows up as requested sleep.
	if slept < 20*time.Millisecond || slept > 60*time.Millisecond {
		t.Fatalf("throttle slept %v, want ~40ms", slept)
	}
}

func TestScrubberContextCancel(t *testing.T) {
	cs, err := NewChecksummed(NewMemStore(6))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewScrubber(cs, func() int { return 1000 }, NewQuarantine(), ScrubberOptions{BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sc.RunOnce(ctx); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sc.Stats().Passes != 0 {
		t.Fatal("canceled pass counted as complete")
	}
}

// TestDurableVerifyAndRepair rots a block a write-through Durable (the
// mode the epoch layer runs it in) committed and repairs it from the
// retained batch.
func TestDurableVerifyAndRepair(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/store.bin"
	d, err := CreateDurable(path, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.WriteThrough()
	payload := []float64{9, 8, 7, 6}
	for id := 0; id < 6; id++ {
		if err := d.WriteBlock(id, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	// Rot block 2 on the medium, under the Durable's feet.
	raw, err := OpenFileStore(path, 4+ChecksumOverhead)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]float64, 6)
	if err := raw.ReadBlock(2, frame); err != nil {
		t.Fatal(err)
	}
	frame[1] += 1
	if err := raw.WriteBlock(2, frame); err != nil {
		t.Fatal(err)
	}
	if err := raw.Close(); err != nil {
		t.Fatal(err)
	}

	corrupt, err := d.VerifyBlocks([]int{0, 1, 2, 3, 4, 5})
	if err != nil || len(corrupt) != 1 || corrupt[0] != 2 {
		t.Fatalf("verify: corrupt=%v err=%v", corrupt, err)
	}
	// The last committed batch covers block 2: repair rolls it forward.
	ok, err := d.RepairBlock(2)
	if err != nil || !ok {
		t.Fatalf("repair: ok=%v err=%v", ok, err)
	}
	corrupt, err = d.VerifyBlocks([]int{2})
	if err != nil || len(corrupt) != 0 {
		t.Fatalf("verify after repair: corrupt=%v err=%v", corrupt, err)
	}
	buf := make([]float64, 4)
	if err := d.ReadBlock(2, buf); err != nil {
		t.Fatal(err)
	}
	for i, v := range payload {
		if buf[i] != v {
			t.Fatalf("repaired block = %v, want %v", buf, payload)
		}
	}
	// A block outside every repair source reports unrepairable.
	ok, err = d.RepairBlock(4096)
	if err != nil || ok {
		t.Fatalf("unrepairable block: ok=%v err=%v", ok, err)
	}
}
