package storage

import (
	"errors"
	"testing"
)

// degradedStack builds MemStore → Checksummed → Degraded with n written
// blocks, returning the layers.
func degradedStack(t *testing.T, n int) (*MemStore, *Checksummed, *Degraded, *Quarantine) {
	t.Helper()
	inner := NewMemStore(6)
	cs, err := NewChecksummed(inner)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < n; id++ {
		if err := cs.WriteBlock(id, []float64{float64(id), 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	q := NewQuarantine()
	dg, err := NewDegraded(cs, q)
	if err != nil {
		t.Fatal(err)
	}
	return inner, cs, dg, q
}

func TestDegradedServesQuarantinedAsZeros(t *testing.T) {
	_, _, dg, q := degradedStack(t, 4)
	q.Add(1, "test")
	buf := make([]float64, 4)
	if err := dg.ReadBlock(1, buf); err != nil {
		t.Fatalf("quarantined read must degrade, not fail: %v", err)
	}
	for _, v := range buf {
		if v != 0 {
			t.Fatalf("degraded read = %v, want zeros", buf)
		}
	}
	if dg.DegradedReads() != 1 {
		t.Fatalf("DegradedReads = %d, want 1", dg.DegradedReads())
	}
	// Non-quarantined blocks serve normally.
	if err := dg.ReadBlock(2, buf); err != nil || buf[0] != 2 {
		t.Fatalf("clean read: buf=%v err=%v", buf, err)
	}
	if dg.DegradedReads() != 1 {
		t.Fatal("clean read counted as degraded")
	}
}

func TestDegradedFirstHitErrorsThenQuarantines(t *testing.T) {
	inner, _, dg, q := degradedStack(t, 4)
	rotFrame(t, inner, 2)
	buf := make([]float64, 4)
	// First read of fresh corruption must FAIL (a read-modify-write above
	// must not fold zeros into a rewrite) — and quarantine the block.
	err := dg.ReadBlock(2, buf)
	if !errors.Is(err, ErrCorruption) {
		t.Fatalf("first hit err = %v, want corruption", err)
	}
	if !q.Has(2) {
		t.Fatal("first hit did not quarantine")
	}
	// Second read degrades to zeros.
	if err := dg.ReadBlock(2, buf); err != nil {
		t.Fatalf("second hit must degrade: %v", err)
	}
	if dg.DegradedReads() != 1 {
		t.Fatalf("DegradedReads = %d, want 1", dg.DegradedReads())
	}
}

func TestDegradedBatchQuarantinesEveryCorruptBlock(t *testing.T) {
	inner, _, dg, q := degradedStack(t, 8)
	rotFrame(t, inner, 3)
	rotFrame(t, inner, 6)
	ids := []int{0, 1, 2, 3, 4, 5, 6, 7}
	bufs := SliceFrames(make([]float64, 32), 8, 4)
	err := dg.ReadBlocks(ids, bufs)
	if !errors.Is(err, ErrCorruption) {
		t.Fatalf("batch err = %v, want corruption", err)
	}
	if !q.Has(3) || !q.Has(6) || q.Len() != 2 {
		t.Fatalf("quarantine after batch = %v, want blocks 3 and 6", q.Snapshot())
	}
	// Retry: both bad blocks now degrade, the rest serve real data.
	if err := dg.ReadBlocks(ids, bufs); err != nil {
		t.Fatalf("degraded batch failed: %v", err)
	}
	for i, id := range ids {
		want := float64(id)
		if id == 3 || id == 6 {
			want = 0
		}
		if bufs[i][0] != want {
			t.Fatalf("block %d = %v", id, bufs[i])
		}
	}
	if dg.DegradedReads() != 2 {
		t.Fatalf("DegradedReads = %d, want 2", dg.DegradedReads())
	}
}

// TestDegradedIsReadOnly: writes through the serving layer fail and
// neither reach the medium nor release a quarantined block.
func TestDegradedIsReadOnly(t *testing.T) {
	_, cs, dg, q := degradedStack(t, 4)
	q.Add(1, "test")
	if err := dg.WriteBlock(1, []float64{5, 5, 5, 5}); err == nil {
		t.Fatal("WriteBlock through the degraded layer succeeded")
	}
	if err := dg.WriteBlocks([]int{1, 2}, [][]float64{{6, 6, 6, 6}, {7, 7, 7, 7}}); err == nil {
		t.Fatal("WriteBlocks through the degraded layer succeeded")
	}
	if !q.Has(1) || q.Len() != 1 {
		t.Fatalf("a failed write changed the quarantine: %v", q.Snapshot())
	}
	buf := make([]float64, 4)
	for id := 1; id <= 2; id++ {
		if err := cs.ReadBlock(id, buf); err != nil || buf[0] != float64(id) {
			t.Fatalf("block %d on the medium: buf=%v err=%v", id, buf, err)
		}
	}
}
