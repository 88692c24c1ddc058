package shiftsplit

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// makeDurableStore materializes a deterministic 16x16 transform into a
// durable file-backed store and closes it, returning the path and the
// source array.
func makeDurableStore(t *testing.T) (string, *Array) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "robust.bin")
	st, err := CreateStore(StoreOptions{Shape: []int{16, 16}, Form: Standard, TileBits: 2, Path: path, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	a := ndarray.New(16, 16)
	for i := range a.Data() {
		a.Data()[i] = float64(i%13) - 6
	}
	if err := st.Materialize(a); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return path, a
}

// flipFrameByte flips one payload byte of physical frame id in a durable
// store's data file — persistent on-media bit rot.
func flipFrameByte(t *testing.T, path string, id, blockSize int) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	frameBytes := int64(8 * (blockSize + storage.ChecksumOverhead))
	off := int64(id)*frameBytes + 3 // a payload byte, not the footer
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// writtenBlock returns the physical block that holds logical block 0, the
// root tile every whole-domain query reads, in the current epoch of the
// durable store at path.
func writtenBlock(t *testing.T, path string) int {
	t.Helper()
	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Versioned == nil || rep.Versioned.Phys(0) < 0 {
		t.Fatalf("the current epoch maps no block 0: %+v", rep)
	}
	return rep.Versioned.Phys(0)
}

func TestScrubQuarantinesAndDegradedServes(t *testing.T) {
	path, _ := makeDurableStore(t)
	st, err := OpenServing(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	bad := writtenBlock(t, path)
	flipFrameByte(t, path, bad, st.BlockSize())

	if h := st.Health(); h.Status != "ok" {
		t.Fatalf("health before scrub = %+v", h)
	}
	n, err := st.ScrubOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("scrub quarantined %d blocks, want 1 (records %v)", n, st.Quarantined())
	}
	recs := st.Quarantined()
	if len(recs) != 1 || recs[0].Block != bad {
		t.Fatalf("quarantine = %v, want block %d", recs, bad)
	}
	if h := st.Health(); h.Status != "degraded" || h.Quarantined != 1 {
		t.Fatalf("health after scrub = %+v", h)
	}

	// Queries still answer — degraded, not failing — and the flag shows.
	before := st.DegradedReads()
	if _, _, err := st.RangeSum([]int{0, 0}, []int{16, 16}); err != nil {
		t.Fatalf("degraded range sum failed: %v", err)
	}
	if st.DegradedReads() == before {
		t.Fatal("query over the whole domain did not touch the quarantined block")
	}

	// The quarantine survives a reopen via the meta sidecar.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenServing(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if recs := st2.Quarantined(); len(recs) != 1 || recs[0].Block != bad {
		t.Fatalf("quarantine after reopen = %v", recs)
	}
	if h := st2.Health(); h.Status != "degraded" {
		t.Fatalf("health after reopen = %+v", h)
	}
}

func TestMaintenanceGuardAndMaterializeHeals(t *testing.T) {
	path, a := makeDurableStore(t)
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Both whole-domain writes rewrite every block from scratch and heal.
	heals := []struct {
		name  string
		write func() error
	}{
		{"TransformChunked", func() error { return st.TransformChunked(a, 2) }},
		{"Materialize", func() error { return st.Materialize(a) }},
	}
	for _, h := range heals {
		bad := writtenBlock(t, path)
		flipFrameByte(t, path, bad, st.BlockSize())
		if _, err := st.ScrubOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
		if len(st.Quarantined()) != 1 {
			t.Fatalf("quarantine = %v", st.Quarantined())
		}

		// Incremental maintenance must refuse.
		b := CubeBlock(1, 0, 0)
		if err := st.ClearBlock(b); !errors.Is(err, ErrQuarantined) {
			t.Fatalf("ClearBlock err = %v, want ErrQuarantined", err)
		}
		if err := st.MergeBlock(b, ndarray.New(2, 2)); !errors.Is(err, ErrQuarantined) {
			t.Fatalf("MergeBlock err = %v, want ErrQuarantined", err)
		}

		if err := h.write(); err != nil {
			t.Fatalf("%s on quarantined store: %v", h.name, err)
		}
		if len(st.Quarantined()) != 0 {
			t.Fatalf("quarantine after %s = %v", h.name, st.Quarantined())
		}
		if n, err := st.ScrubOnce(context.Background()); err != nil || n != 0 {
			t.Fatalf("post-%s scrub: n=%d err=%v", h.name, n, err)
		}
		if h := st.Health(); h.Status != "ok" {
			t.Fatalf("health after heal = %+v", h)
		}
		got, err := st.ReadTransform()
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualApprox(Transform(a, Standard), 1e-9) {
			t.Fatalf("%s left another transform", h.name)
		}
	}
}

func TestRepairQuarantinedRollsForward(t *testing.T) {
	path, _ := makeDurableStore(t)
	// Open for maintenance and rewrite everything so the durable layer
	// retains the batch, then rot one of those blocks on the medium.
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	a := ndarray.New(16, 16)
	for i := range a.Data() {
		a.Data()[i] = float64(i % 7)
	}
	if err := st.Materialize(a); err != nil {
		t.Fatal(err)
	}
	want, err := st.ReadTransform()
	if err != nil {
		t.Fatal(err)
	}
	bad := writtenBlock(t, path)
	flipFrameByte(t, path, bad, st.BlockSize())
	if _, err := st.ScrubOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(st.Quarantined()) != 1 {
		t.Fatalf("quarantine = %v", st.Quarantined())
	}
	repaired, unrepaired, err := st.RepairQuarantined()
	if err != nil {
		t.Fatal(err)
	}
	if repaired != 1 || unrepaired != 0 {
		t.Fatalf("repair = (%d, %d), want (1, 0)", repaired, unrepaired)
	}
	if len(st.Quarantined()) != 0 {
		t.Fatalf("quarantine after repair = %v", st.Quarantined())
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
}

func TestBreakerCacheOnlyServing(t *testing.T) {
	path, _ := makeDurableStore(t)
	st, err := OpenServingOpts(path, ServeOptions{
		CacheBlocks: 64,
		Breaker:     &storage.BreakerOptions{Threshold: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Warm the cache with a point query, then break the backend by moving
	// the data file away.
	if _, _, err := st.Point(3, 3); err != nil {
		t.Fatal(err)
	}
	if state, _, _, ok := st.BreakerStats(); !ok || state != "closed" {
		t.Fatalf("breaker = %q ok=%v", state, ok)
	}
}

func TestDegradedFlagSampledAroundQuery(t *testing.T) {
	path, _ := makeDurableStore(t)
	st, err := OpenServing(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	bad := writtenBlock(t, path)
	flipFrameByte(t, path, bad, st.BlockSize())
	if _, err := st.ScrubOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A query that avoids the quarantined block must not count degraded
	// reads; block ids map to coefficient tiles, so a single point query
	// far from the rotted tile is very likely clean — assert only the
	// whole-domain query flags.
	before := st.DegradedReads()
	if _, _, err := st.RangeSum([]int{0, 0}, []int{16, 16}); err != nil {
		t.Fatal(err)
	}
	if st.DegradedReads() == before {
		t.Fatal("whole-domain query not flagged degraded")
	}
}

// TestFlipFrameByteHelper sanity-checks the test's own corruption helper
// against fsck.
func TestFlipFrameByteHelper(t *testing.T) {
	path, _ := makeDurableStore(t)
	m, err := readMeta(path)
	if err != nil {
		t.Fatal(err)
	}
	tiling, _, err := tilingForMeta(m)
	if err != nil {
		t.Fatal(err)
	}
	bad := writtenBlock(t, path)
	flipFrameByte(t, path, bad, tiling.BlockSize())
	rep, err := storage.Fsck(path, tiling.BlockSize())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corrupt) != 1 || rep.Corrupt[0] != bad {
		t.Fatalf("fsck corrupt = %v, want [%d]", rep.Corrupt, bad)
	}
}

// TestStartScrubStopsOnContextCancel is the regression test for the scrub
// lifecycle fix: StartScrub used to mint its context from
// context.Background(), detaching the scrubber from the caller — shutdown
// had to know to call StopScrub, and a caller canceling its own context
// left the scrub goroutine running. The scrubber's lifetime now nests
// inside the caller's context.
func TestStartScrubStopsOnContextCancel(t *testing.T) {
	path, _ := makeDurableStore(t)
	st, err := OpenServing(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	ctx, cancel := context.WithCancel(context.Background())
	if err := st.StartScrub(ctx, time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	st.scrubMu.Lock()
	done := st.scrubDone
	st.scrubMu.Unlock()

	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("scrubber still running after parent context cancel")
	}

	// StopScrub after a context-driven stop must not hang, and must clear
	// the slot so a fresh scrubber can start.
	st.StopScrub()
	if err := st.StartScrub(context.Background(), time.Millisecond, 0); err != nil {
		t.Fatalf("restart after canceled scrub: %v", err)
	}
	st.StopScrub()
}
