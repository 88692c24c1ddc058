package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"unsafe"
)

// mappedBlockVal is the deterministic cell pattern the mapped tests
// write: distinct per (block, slot) so torn or misplaced frames are
// visible.
func mappedBlockVal(id, k int) float64 { return float64(1000*id + k + 1) }

func fillMappedBlock(buf []float64, id int) {
	for k := range buf {
		buf[k] = mappedBlockVal(id, k)
	}
}

func TestMappedStoreRoundTrip(t *testing.T) {
	const bs = 5
	ms, err := NewMappedStore(filepath.Join(t.TempDir(), "rt.dat"), bs)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	buf := make([]float64, bs)
	for id := 0; id < 6; id++ {
		fillMappedBlock(buf, id)
		if err := ms.WriteBlock(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	for id := 0; id < 6; id++ {
		if err := ms.ReadBlock(id, buf); err != nil {
			t.Fatal(err)
		}
		for k := range buf {
			if buf[k] != mappedBlockVal(id, k) {
				t.Fatalf("block %d slot %d: got %g want %g", id, k, buf[k], mappedBlockVal(id, k))
			}
		}
	}
	// Beyond EOF reads as zeros, like FileStore's lazily allocated medium.
	if err := ms.ReadBlock(40, buf); err != nil {
		t.Fatal(err)
	}
	for k, v := range buf {
		if v != 0 {
			t.Fatalf("EOF block slot %d: got %g want 0", k, v)
		}
	}
	// The accounting contract: reads never issue preads; the traffic is
	// carried by the distinct mapped-read counter instead.
	preads, pwrites := ms.Syscalls()
	if preads != 0 {
		t.Fatalf("mapped store issued %d preads", preads)
	}
	if pwrites == 0 {
		t.Fatal("writes issued no pwrites")
	}
	if mr := ms.MappedReads(); mr < 7 {
		t.Fatalf("mapped reads = %d, want >= 7", mr)
	}
	// Views: in-file frames borrow from the mapping, beyond-EOF frames
	// are nil (read as zeros).
	views, err := ms.ViewFrames([]int{2, 40})
	if err != nil {
		t.Fatal(err)
	}
	if fr := views.Frame(0); fr == nil {
		t.Fatal("in-file frame view is nil")
	} else if got := math.Float64frombits(binary.LittleEndian.Uint64(fr)); got != mappedBlockVal(2, 0) {
		t.Fatalf("frame view slot 0: got %g want %g", got, mappedBlockVal(2, 0))
	}
	if views.Frame(1) != nil {
		t.Fatal("beyond-EOF frame view is non-nil")
	}
	views.Release()
}

// TestMappedFileStoreInterop proves the on-disk layout is FileStore's:
// either store type opens the other's file and reads identical cells.
func TestMappedFileStoreInterop(t *testing.T) {
	const bs = 7
	path := filepath.Join(t.TempDir(), "interop.dat")
	fs, err := NewFileStore(path, bs)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, bs)
	for id := 0; id < 9; id++ {
		fillMappedBlock(buf, id)
		if err := fs.WriteBlock(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	ms, err := OpenMappedStore(path, bs)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 9; id++ {
		if err := ms.ReadBlock(id, buf); err != nil {
			t.Fatal(err)
		}
		for k := range buf {
			if buf[k] != mappedBlockVal(id, k) {
				t.Fatalf("mapped read of FileStore file, block %d slot %d: got %g", id, k, buf[k])
			}
		}
	}
	// Extend through the mapped store, then reread with a FileStore.
	fillMappedBlock(buf, 12)
	if err := ms.WriteBlock(12, buf); err != nil {
		t.Fatal(err)
	}
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}
	fs2, err := OpenFileStore(path, bs)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	if err := fs2.ReadBlock(12, buf); err != nil {
		t.Fatal(err)
	}
	for k := range buf {
		if buf[k] != mappedBlockVal(12, k) {
			t.Fatalf("FileStore read of mapped write, slot %d: got %g", k, buf[k])
		}
	}
}

// syscallStore is the test-side view of a store with both batch entry
// points and syscall-proxy counters.
type syscallStore interface {
	BlockStore
	BatchReader
	BatchWriter
	Syscalls() (preads, pwrites int64)
}

// TestRunCoalescingBoundaries walks batch sizes around the maxRunBlocks
// cap (64) through both positional-I/O stores: contents must round-trip
// bit-identically and each maximal 64-block run must cost exactly one
// pwrite (and, for FileStore, one pread).
func TestRunCoalescingBoundaries(t *testing.T) {
	const bs = 3
	sizes := []int{1, 63, 64, 65, 127, 128, 129}
	for _, kind := range []string{"file", "mapped"} {
		for _, n := range sizes {
			t.Run(fmt.Sprintf("%s/n=%d", kind, n), func(t *testing.T) {
				var st syscallStore
				var err error
				path := filepath.Join(t.TempDir(), "runs.dat")
				if kind == "file" {
					st, err = NewFileStore(path, bs)
				} else {
					st, err = NewMappedStore(path, bs)
				}
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()

				ids := make([]int, n)
				frames := SliceFrames(make([]float64, n*bs), n, bs)
				for i := range ids {
					ids[i] = i
					fillMappedBlock(frames[i], i)
				}
				wantRuns := int64((n + maxRunBlocks - 1) / maxRunBlocks)

				preads0, pwrites0 := st.Syscalls()
				if err := st.WriteBlocks(ids, frames); err != nil {
					t.Fatal(err)
				}
				_, pwrites1 := st.Syscalls()
				if got := pwrites1 - pwrites0; got != wantRuns {
					t.Fatalf("%d consecutive blocks took %d pwrites, want %d", n, got, wantRuns)
				}

				got := SliceFrames(make([]float64, n*bs), n, bs)
				if err := st.ReadBlocks(ids, got); err != nil {
					t.Fatal(err)
				}
				for i := range ids {
					for k := range got[i] {
						if got[i][k] != frames[i][k] {
							t.Fatalf("block %d slot %d: got %g want %g", i, k, got[i][k], frames[i][k])
						}
					}
				}
				preads2, _ := st.Syscalls()
				if kind == "file" {
					if gotReads := preads2 - preads0; gotReads != wantRuns {
						t.Fatalf("%d consecutive blocks took %d preads, want %d", n, gotReads, wantRuns)
					}
				} else {
					if preads2 != 0 {
						t.Fatalf("mapped batch read issued %d preads", preads2)
					}
					ms := st.(*MappedStore)
					if mr := ms.MappedReads(); mr < int64(n) {
						t.Fatalf("mapped reads = %d, want >= %d", mr, n)
					}
				}

				// A one-block gap at the cap boundary must split the run.
				if n == 64 {
					gapIDs := make([]int, 64)
					copy(gapIDs, ids)
					gapIDs[63] = 64 // 0..62 consecutive, then a jump
					_, pw0 := st.Syscalls()
					if err := st.WriteBlocks(gapIDs, frames); err != nil {
						t.Fatal(err)
					}
					_, pw1 := st.Syscalls()
					if gotW := pw1 - pw0; gotW != 2 {
						t.Fatalf("gapped batch took %d pwrites, want 2", gotW)
					}
				}
			})
		}
	}
}

// TestMappedStoreRemapOnGrowConcurrentViews exercises remap-on-grow
// under borrowed views (run it with -race): readers continuously borrow
// zero-copy views of a stable prefix while a writer grows the file past
// the mapped extent and forces remaps by reading the new tail. Old
// mapping generations must stay valid until every borrow drains.
func TestMappedStoreRemapOnGrowConcurrentViews(t *testing.T) {
	const (
		bs      = 4
		stable  = 8   // blocks the readers verify; never rewritten
		growth  = 160 // blocks appended while readers hold views
		readers = 4
	)
	ms, err := NewMappedStore(filepath.Join(t.TempDir(), "grow.dat"), bs)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	buf := make([]float64, bs)
	for id := 0; id < stable; id++ {
		fillMappedBlock(buf, id)
		if err := ms.WriteBlock(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := ms.ReadBlock(0, buf); err != nil { // establish the first mapping
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	ids := make([]int, stable)
	for i := range ids {
		ids[i] = i
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := make([]float64, bs)
			for {
				select {
				case <-stop:
					return
				default:
				}
				views, err := ms.ViewFrames(ids)
				if err != nil {
					t.Errorf("ViewFrames: %v", err)
					return
				}
				for j, id := range ids {
					fr := views.Frame(j)
					if fr == nil {
						t.Errorf("block %d: nil view of an allocated block", id)
						views.Release()
						return
					}
					for k := 0; k < bs; k++ {
						got := math.Float64frombits(binary.LittleEndian.Uint64(fr[8*k:]))
						if got != mappedBlockVal(id, k) {
							t.Errorf("view of block %d slot %d: got %g want %g", id, k, got, mappedBlockVal(id, k))
							views.Release()
							return
						}
					}
				}
				views.Release()
				// Interleave copying reads so both paths race the remaps.
				if err := ms.ReadBlock(ids[0], scratch); err != nil {
					t.Errorf("ReadBlock: %v", err)
					return
				}
			}
		}()
	}

	wbuf := make([]float64, bs)
	for id := stable; id < stable+growth; id++ {
		fillMappedBlock(wbuf, id)
		if err := ms.WriteBlock(id, wbuf); err != nil {
			t.Fatal(err)
		}
		// Reading the fresh tail block lands past the mapped extent and
		// forces a remap while the readers hold borrowed views.
		if err := ms.ReadBlock(id, buf); err != nil {
			t.Fatal(err)
		}
		for k := range buf {
			if buf[k] != mappedBlockVal(id, k) {
				t.Fatalf("grown block %d slot %d: got %g want %g", id, k, buf[k], mappedBlockVal(id, k))
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestMappedChecksummedDetectsCorruption flips on-medium bytes under a
// Checksummed-over-MappedStore stack and requires the zero-copy view
// read path to report ErrChecksum, not clean data.
func TestMappedChecksummedDetectsCorruption(t *testing.T) {
	const bs = 6
	path := filepath.Join(t.TempDir(), "corrupt.dat")
	ms, err := NewMappedStore(path, bs+ChecksumOverhead)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	chk, err := NewChecksummed(ms)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, bs)
	for id := 0; id < 3; id++ {
		fillMappedBlock(buf, id)
		if err := chk.WriteBlock(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	// Flip one payload byte of block 1 behind the stack's back.
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	frame := 8 * (bs + ChecksumOverhead)
	if _, err := f.WriteAt([]byte{0xff}, int64(frame+3)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	bufs := SliceFrames(make([]float64, 3*bs), 3, bs)
	err = chk.ReadBlocks([]int{0, 1, 2}, bufs)
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("batched read of corrupted mapped block returned %v, want ErrChecksum", err)
	}
	if err := chk.ReadBlock(0, buf); err != nil {
		t.Fatalf("intact block unreadable: %v", err)
	}
}

// TestCrashCampaignMappedStore is the durable crash campaign over the
// mmap-backed data device: power cut at every physical mutation index of
// a commit — including between the data file's fsync and the journal
// retire — must recover to exactly the pre- or post-batch state. The
// mapping is PROT_READ, so no dirty mapped page can reach the medium
// outside the pwrite+journal order; a hybrid state here would disprove
// that.
func TestCrashCampaignMappedStore(t *testing.T) {
	const blockSize = 6
	seed := campaignSeed(t)
	batchA, batchB := campaignBatches(blockSize)
	pre, post := expectedStates(batchA, batchB)

	dry := NewCrashPlan(seed)
	dir := t.TempDir()
	path := filepath.Join(dir, "dry.dat")
	d, err := CreateDurableMapped(path, blockSize, dry, nil)
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
		d, err := CreateDurableMapped(path, blockSize, plan, nil)
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

		// Power restored: recovery must work through the mapped device
		// too, and its reads must be mapped (zero preads on the data
		// device, mapped-read counter moving).
		var dev MappedReadsReporter
		d2, err := OpenDurableMapped(path, blockSize, nil, func(bs BlockStore) BlockStore {
			dev = bs.(*MappedStore)
			return bs
		})
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
		if dev.MappedReads() == 0 {
			t.Fatalf("trial %d: recovered mapped store served no mapped reads", w)
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

// TestMappedStorePartialBatchKeepsSize: when a vectored write fails after
// some of its runs reached the medium, the store's idea of the file size
// must still cover them — a stale size clamps the mapping and the blocks
// that were written read back as zeros.
func TestMappedStorePartialBatchKeepsSize(t *testing.T) {
	const bs = 4
	ms, err := NewMappedStore(filepath.Join(t.TempDir(), "partial.dat"), bs)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	// Run one is blocks 0..2; run two sits at an offset no file can reach
	// (8*bs*2^58 overflows int64), so its pwrite fails.
	ids := []int{0, 1, 2, 1 << 58}
	data := make([][]float64, len(ids))
	for i, id := range ids {
		data[i] = make([]float64, bs)
		fillMappedBlock(data[i], id&0xff)
	}
	if err := ms.WriteBlocks(ids, data); err == nil {
		t.Fatal("write at an unreachable offset succeeded")
	}
	got := make([]float64, bs)
	for id := 0; id < 3; id++ {
		if err := ms.ReadBlock(id, got); err != nil {
			t.Fatal(err)
		}
		for k := range got {
			if got[k] != mappedBlockVal(id, k) {
				t.Fatalf("block %d slot %d reads %v after the failed batch, want %v (on the medium since run one)", id, k, got[k], mappedBlockVal(id, k))
			}
		}
	}
}

// TestMappedFaultIsAnError truncates the file under a live mapping: the
// pages behind it are gone, so touching them faults. Every mapped read
// leg returns that fault as an error classed like a failed pread, and the
// process goes on.
func TestMappedFaultIsAnError(t *testing.T) {
	const bs = 512 // 4 KiB frames: every block its own page
	path := filepath.Join(t.TempDir(), "fault.dat")
	ms, err := NewMappedStore(path, bs)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	ids := make([]int, 64)
	bufs := make([][]float64, 64)
	for id := range ids {
		ids[id], bufs[id] = id, make([]float64, bs)
		fillMappedBlock(bufs[id], id)
	}
	if err := ms.WriteBlocks(ids, bufs); err != nil {
		t.Fatal(err)
	}
	if err := ms.ReadBlocks(ids, bufs); err != nil {
		t.Fatal(err)
	}
	chk, err := NewChecksumReader(ms)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	check := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s over a truncated mapping returned no error", what)
		}
		if !errors.Is(err, syscall.EIO) || Classify(err) != Classify(fmt.Errorf("pread: %w", syscall.EIO)) {
			t.Fatalf("%s: %v is not classed as a device read error", what, err)
		}
	}
	check("ReadBlock", ms.ReadBlock(5, bufs[0]))
	check("ReadBlocks", ms.ReadBlocks([]int{0, 63}, bufs[:2]))
	small := [][]float64{make([]float64, chk.BlockSize()), make([]float64, chk.BlockSize())}
	check("checksummed ReadBlocks", chk.ReadBlocks([]int{0, 63}, small))
}

// TestMappingIsReadOnly reads the process's own memory map and requires the
// store's mapping of its file to be shared and not writable: what lets Sync
// be the file's fsync alone, with no msync in front of it. Writes and a
// sync that grows the file must keep it so.
func TestMappingIsReadOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ro.dat")
	ms, err := NewMappedStore(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	buf := make([]float64, 512)
	for id := 0; id < 4; id++ {
		fillMappedBlock(buf, id)
		if err := ms.WriteBlock(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := ms.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := ms.ReadBlock(3, buf); err != nil { // maps the grown file
		t.Fatal(err)
	}
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no process memory map to read: %v", err)
	}
	ms.mu.RLock()
	addr := uint64(uintptr(unsafe.Pointer(&ms.m.data[0])))
	ms.mu.RUnlock()
	var line string
	for _, l := range strings.Split(string(maps), "\n") {
		var lo, hi uint64
		if _, err := fmt.Sscanf(l, "%x-%x", &lo, &hi); err == nil && lo <= addr && addr < hi {
			line = l
			break
		}
	}
	fields := strings.Fields(line)
	if len(fields) < 6 || fields[5] != path {
		t.Fatalf("mapping at %#x: /proc/self/maps has %q, want a mapping of %s", addr, line, path)
	}
	if perms := fields[1]; perms[1] != '-' || perms[3] != 's' {
		t.Fatalf("mapping of %s has permissions %q, want shared and not writable (r--s)", path, perms)
	}
}
