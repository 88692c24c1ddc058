package storage

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestDurableBasicCommitAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.dat")
	d, err := CreateDurable(path, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.BlockSize() != 4 {
		t.Fatalf("block size = %d", d.BlockSize())
	}
	if err := d.WriteBlock(0, []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBlock(5, []float64{5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	// Staged writes are visible before commit.
	buf := make([]float64, 4)
	if err := d.ReadBlock(5, buf); err != nil || buf[0] != 5 {
		t.Fatalf("overlay read = %v, %v", buf, err)
	}
	if d.Pending() != 2 {
		t.Fatalf("pending = %d", d.Pending())
	}
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	if d.Pending() != 0 || d.Epoch() != 1 {
		t.Fatalf("after commit: pending=%d epoch=%d", d.Pending(), d.Epoch())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDurable(path, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if err := d2.ReadBlock(0, buf); err != nil || buf[3] != 4 {
		t.Fatalf("reopened block 0 = %v, %v", buf, err)
	}
	if err := d2.ReadBlock(5, buf); err != nil || buf[0] != 5 {
		t.Fatalf("reopened block 5 = %v, %v", buf, err)
	}
	if _, ok := d2.Recovered(); ok {
		t.Fatal("clean reopen reported a recovery")
	}
	rep, err := Fsck(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Written != 2 {
		t.Fatalf("fsck = %+v", rep)
	}
}

func TestDurableRollback(t *testing.T) {
	data := NewMemStore(4 + ChecksumOverhead)
	wal := NewMemStore(4 + JournalOverhead)
	d, err := NewDurable(data, wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBlock(1, []float64{9, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	d.Rollback()
	buf := make([]float64, 4)
	if err := d.ReadBlock(1, buf); err != nil || buf[0] != 0 {
		t.Fatalf("rolled-back block = %v, %v", buf, err)
	}
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	if d.Epoch() != 0 {
		t.Fatalf("empty commit bumped epoch to %d", d.Epoch())
	}
}

func TestDurableCloseCommits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.dat")
	d, err := CreateDurable(path, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBlock(2, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal("second Close errored:", err)
	}
	if _, err := os.Stat(WalPath(path)); err != nil {
		t.Fatalf("wal sidecar missing: %v", err)
	}
	d2, err := OpenDurable(path, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	buf := make([]float64, 3)
	if err := d2.ReadBlock(2, buf); err != nil || buf[2] != 3 {
		t.Fatalf("block after close-commit = %v, %v", buf, err)
	}
}

func TestDurableOpenWithoutWalRecreatesIt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.dat")
	d, err := CreateDurable(path, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBlock(0, []float64{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(WalPath(path)); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDurable(path, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	buf := make([]float64, 3)
	if err := d2.ReadBlock(0, buf); err != nil || buf[1] != 5 {
		t.Fatalf("block = %v, %v", buf, err)
	}
}

func TestDurableClosedErrors(t *testing.T) {
	d, err := NewDurable(NewMemStore(2+ChecksumOverhead), NewMemStore(2+JournalOverhead))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 2)
	if err := d.ReadBlock(0, buf); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close: %v", err)
	}
	if err := d.WriteBlock(0, buf); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}
	if err := d.Commit(); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit after close: %v", err)
	}
}

func TestFsckFlagsCorruptBlock(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.dat")
	d, err := CreateDurable(path, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBlock(0, []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBlock(1, []float64{5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Rot one byte of block 1's frame on disk.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	frameBytes := int64(8 * (4 + ChecksumOverhead))
	if _, err := f.WriteAt([]byte{0xFF}, frameBytes+3); err != nil {
		t.Fatal(err)
	}
	f.Close()
	rep, err := Fsck(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || len(rep.Corrupt) != 1 || rep.Corrupt[0] != 1 {
		t.Fatalf("fsck missed the rot: %+v", rep)
	}
}

// commitOp returns one steady-state maintenance commit on an in-memory
// durable pair: nine 256-slot blocks (a maintain op's average batch)
// staged and committed.
func commitOp(tb testing.TB) func() {
	const payload = 256
	d, err := NewDurable(NewMemStore(payload+ChecksumOverhead), NewMemStore(payload+JournalOverhead))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { d.Close() })
	ids := []int{3, 4, 5, 9, 10, 11, 40, 41, 42}
	data := make([][]float64, len(ids))
	for i := range data {
		data[i] = seqPayload(payload, float64(i))
	}
	return func() {
		if err := d.WriteBlocks(ids, data); err != nil {
			tb.Fatal(err)
		}
		if err := d.Commit(); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestDurableCommitAllocBudget holds a commit to what it must allocate: the
// staging map and the post-images it keeps as the repair source. The
// journal's record slab, its positions and the sorted batch are reused
// across commits. The format v1 journal measured 34 allocations here; the
// budget is that less the slab and the positions.
func TestDurableCommitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const budget = 32
	op := commitOp(t)
	for i := 0; i < 4; i++ {
		op()
	}
	allocs := testing.AllocsPerRun(200, op)
	t.Logf("9-block commit: %.1f allocations (budget %d)", allocs, budget)
	if allocs > budget {
		t.Fatalf("9-block commit allocates %.1f times, budget %d", allocs, budget)
	}
}

// BenchmarkDurableCommit is one 9-block commit: framing, journal records,
// apply, and the four syncs (free on memory stores).
func BenchmarkDurableCommit(b *testing.B) {
	op := commitOp(b)
	op()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
