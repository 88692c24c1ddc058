package storage

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// fillSeq returns a block-sized buffer holding a recognizable pattern.
func fillSeq(n int, seed float64) []float64 {
	buf := make([]float64, n)
	for i := range buf {
		buf[i] = seed + float64(i)
	}
	return buf
}

func TestVersionedFreshReadsZeros(t *testing.T) {
	v, err := NewVersioned(NewMemStore(8), 10)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if got := v.Epoch(); got != 0 {
		t.Fatalf("fresh epoch = %d, want 0", got)
	}
	buf := make([]float64, 8)
	for id := 0; id < 10; id++ {
		buf[0] = 99
		if err := v.ReadBlock(id, buf); err != nil {
			t.Fatalf("read %d: %v", id, err)
		}
		for _, x := range buf {
			if x != 0 {
				t.Fatalf("fresh block %d not zero: %v", id, buf)
			}
		}
	}
}

func TestVersionedReadYourWrites(t *testing.T) {
	v, err := NewVersioned(NewMemStore(8), 10)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	want := fillSeq(8, 100)
	if err := v.WriteBlock(3, want); err != nil {
		t.Fatal(err)
	}
	// Uncommitted write is visible through the builder...
	got := make([]float64, 8)
	if err := v.ReadBlock(3, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("builder read = %v, want %v", got, want)
		}
	}
	// ...but not through a pinned snapshot of the committed epoch.
	snap := v.Acquire()
	defer snap.Release()
	if err := snap.ReadBlock(3, got); err != nil {
		t.Fatal(err)
	}
	for _, x := range got {
		if x != 0 {
			t.Fatalf("snapshot of epoch 0 sees uncommitted data: %v", got)
		}
	}
}

func TestVersionedSnapshotIsolationAcrossFlips(t *testing.T) {
	v, err := NewVersioned(NewMemStore(8), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	// Epoch 1: every block holds 1000+i; epoch 2: 2000+i.
	for round := 1; round <= 2; round++ {
		for id := 0; id < 4; id++ {
			if err := v.WriteBlock(id, fillSeq(8, float64(1000*round+id))); err != nil {
				t.Fatal(err)
			}
		}
		if round == 1 {
			if err := v.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap1 := v.Acquire() // pins epoch 1 while epoch 2 is still building
	if snap1.Epoch() != 1 {
		t.Fatalf("pinned epoch %d, want 1", snap1.Epoch())
	}
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}
	snap2 := v.Acquire()
	if snap2.Epoch() != 2 {
		t.Fatalf("pinned epoch %d, want 2", snap2.Epoch())
	}
	buf := make([]float64, 8)
	for id := 0; id < 4; id++ {
		if err := snap1.ReadBlock(id, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != float64(1000+id) {
			t.Fatalf("epoch-1 snapshot block %d = %v, want %d", id, buf[0], 1000+id)
		}
		if err := snap2.ReadBlock(id, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != float64(2000+id) {
			t.Fatalf("epoch-2 snapshot block %d = %v, want %d", id, buf[0], 2000+id)
		}
	}
	if err := snap1.WriteBlock(0, buf); !errors.Is(err, ErrSnapshotReadOnly) {
		t.Fatalf("snapshot write = %v, want ErrSnapshotReadOnly", err)
	}
	snap1.Release()
	snap2.Release()
}

func TestVersionedReclaimsOnlyAfterRelease(t *testing.T) {
	v, err := NewVersioned(NewMemStore(8), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	for id := 0; id < 4; id++ {
		if err := v.WriteBlock(id, fillSeq(8, float64(id))); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}
	snap := v.Acquire()

	// Rewrite everything for epoch 2: with epoch 1 pinned, nothing from it
	// may be reclaimed, so the new epoch allocates 4 fresh blocks.
	for id := 0; id < 4; id++ {
		if err := v.WriteBlock(id, fillSeq(8, float64(100+id))); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}
	st := v.Stats()
	if st.Epoch != 2 || st.Pinned != 1 || st.OldestPinned != 1 {
		t.Fatalf("stats = %+v, want epoch 2 pinned 1 oldest 1", st)
	}
	// The pin holds epoch 1's four data blocks and its one table page.
	if st.Reclaimable != 5 {
		t.Fatalf("reclaimable = %d, want 5 (old epoch's blocks held by the pin)", st.Reclaimable)
	}
	if st.FreeBlocks != 0 {
		t.Fatalf("free = %d, want 0 while the pin holds", st.FreeBlocks)
	}
	snap.Release()
	st = v.Stats()
	// Slot 1 still describes epoch 1, so its blocks stay held until the
	// flip to epoch 3 is durable.
	if st.Pinned != 0 || st.Reclaimable != 5 || st.FreeBlocks != 0 {
		t.Fatalf("after release stats = %+v, want no pins, epoch 1's 5 blocks held", st)
	}
	rewrite := func(base float64) {
		for id := 0; id < 4; id++ {
			if err := v.WriteBlock(id, fillSeq(8, base+float64(id))); err != nil {
				t.Fatal(err)
			}
		}
		if err := v.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Epoch 3 needs five blocks and none is free: rather than grow the
	// file, it gives epoch 1 up and reuses its blocks.
	before := v.PhysExtent()
	rewrite(200)
	if after := v.PhysExtent(); after > before {
		t.Fatalf("epoch 3 grew the file %d -> %d with epoch 1 to give up", before, after)
	}
	if st = v.Stats(); st.Reclaimable != 5 || st.FreeBlocks != 0 {
		t.Fatalf("after epoch 3 stats = %+v, want epoch 2's 5 blocks held", st)
	}
}

func TestVersionedOnReuseHook(t *testing.T) {
	v, err := NewVersioned(NewMemStore(8), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	var mu sync.Mutex
	var reused []int
	v.OnReuse(func(phys int) {
		mu.Lock()
		reused = append(reused, phys)
		mu.Unlock()
	})
	for round := 0; round < 3; round++ {
		for id := 0; id < 2; id++ {
			if err := v.WriteBlock(id, fillSeq(8, float64(10*round+id))); err != nil {
				t.Fatal(err)
			}
		}
		if err := v.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(reused) == 0 {
		t.Fatal("no reuse notifications despite unpinned rewrites across epochs")
	}
	for _, p := range reused {
		if p < v.dataBase {
			t.Fatalf("reuse hook fired for reserved block %d", p)
		}
	}
}

func TestVersionedPersistsAcrossReopen(t *testing.T) {
	for _, leg := range []string{"file", "durable"} {
		t.Run(leg, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "v.blk")
			open := func(create bool) BlockStore {
				switch {
				case leg == "file" && create:
					fs, err := NewFileStore(path, 8)
					if err != nil {
						t.Fatal(err)
					}
					return fs
				case leg == "file":
					fs, err := OpenFileStore(path, 8)
					if err != nil {
						t.Fatal(err)
					}
					return fs
				case create:
					d, err := CreateDurable(path, 8, nil)
					if err != nil {
						t.Fatal(err)
					}
					return d
				default:
					d, err := OpenDurable(path, 8, nil)
					if err != nil {
						t.Fatal(err)
					}
					return d
				}
			}
			base := open(true)
			v, err := NewVersioned(base, 5)
			if err != nil {
				t.Fatal(err)
			}
			for id := 0; id < 5; id++ {
				if err := v.WriteBlock(id, fillSeq(8, float64(300+id))); err != nil {
					t.Fatal(err)
				}
			}
			if err := v.Commit(); err != nil {
				t.Fatal(err)
			}
			// Partially rewrite for epoch 2.
			if err := v.WriteBlock(2, fillSeq(8, 999)); err != nil {
				t.Fatal(err)
			}
			if err := v.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := v.Close(); err != nil {
				t.Fatal(err)
			}

			v2, err := NewVersioned(open(false), 5)
			if err != nil {
				t.Fatal(err)
			}
			defer v2.Close()
			if got := v2.Epoch(); got != 2 {
				t.Fatalf("reopened epoch = %d, want 2", got)
			}
			buf := make([]float64, 8)
			for id := 0; id < 5; id++ {
				if err := v2.ReadBlock(id, buf); err != nil {
					t.Fatal(err)
				}
				want := float64(300 + id)
				if id == 2 {
					want = 999
				}
				if buf[0] != want {
					t.Fatalf("reopened block %d = %v, want %v", id, buf[0], want)
				}
			}
		})
	}
}

func TestVersionedRollbackReturnsAllocations(t *testing.T) {
	dir := t.TempDir()
	d, err := CreateDurable(filepath.Join(dir, "v.blk"), 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewVersioned(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	for id := 0; id < 4; id++ {
		if err := v.WriteBlock(id, fillSeq(8, float64(id))); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}
	ext := v.PhysExtent()
	if err := v.WriteBlock(1, fillSeq(8, 777)); err != nil {
		t.Fatal(err)
	}
	v.Rollback()
	if got := v.Epoch(); got != 1 {
		t.Fatalf("epoch after rollback = %d, want 1", got)
	}
	buf := make([]float64, 8)
	if err := v.ReadBlock(1, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 {
		t.Fatalf("block 1 after rollback = %v, want committed 1", buf[0])
	}
	if got := v.PhysExtent(); got != ext {
		t.Fatalf("extent after rollback = %d, want %d", got, ext)
	}
}

// TestRollbackReachesDurable stacks the epoch layer on the serving write
// leg, Versioned → Counting → SplitRW → Locked → Durable, writes a batch and
// rolls it back: every layer on the way down forwards the rollback, so the
// Durable holds nothing for a later commit or Close to seal — neither
// staged blocks (a Durable that journals) nor the repair copies of blocks
// it wrote through (one in write-through mode, as assemble sets it).
func TestRollbackReachesDurable(t *testing.T) {
	for _, attach := range []bool{false, true} {
		t.Run(fmt.Sprintf("attached=%v", attach), func(t *testing.T) {
			d, err := CreateDurable(filepath.Join(t.TempDir(), "v.blk"), 8, nil)
			if err != nil {
				t.Fatal(err)
			}
			rd, err := d.ReadOnlyView()
			if err != nil {
				t.Fatal(err)
			}
			split, err := NewSplitRW(rd, NewLocked(d))
			if err != nil {
				t.Fatal(err)
			}
			counting := NewCounting(split)
			v, err := NewVersionedSplit(counting, counting, 4)
			if err != nil {
				t.Fatal(err)
			}
			defer v.Close()
			if attach {
				d.WriteThrough()
			}
			for id := 0; id < 4; id++ {
				if err := v.WriteBlock(id, fillSeq(8, float64(id))); err != nil {
					t.Fatal(err)
				}
			}
			held := func() int { return d.Pending() + len(d.batch) }
			if attach && (d.Pending() != 0 || len(d.batch) != 4) {
				t.Fatalf("attached: %d blocks staged and %d written through, want 0 and 4", d.Pending(), len(d.batch))
			}
			if held() == 0 {
				t.Fatal("the batch never reached the Durable")
			}
			v.Rollback()
			if n := held(); n != 0 || d.direct {
				t.Fatalf("Durable still holds %d blocks after Versioned.Rollback", n)
			}
			if !RollbackIfAble(counting) {
				t.Fatal("the forwarding layers over a Durable report that nothing stages")
			}
		})
	}
}

// TestRollbackReportsStaging asks the forwarding layers over stores that
// stage nothing whether a rollback discarded anything: they report the
// store under them, so the appender still poisons itself on such a backing.
func TestRollbackReportsStaging(t *testing.T) {
	mem := NewMemStore(8)
	split, err := NewSplitRW(mem, NewLocked(mem))
	if err != nil {
		t.Fatal(err)
	}
	for name, bs := range map[string]BlockStore{
		"MemStore":            mem,
		"Counting → MemStore": NewCounting(mem),
		"Locked → MemStore":   NewLocked(mem),
		"Counting → SplitRW → Locked → MemStore": NewCounting(split),
	} {
		if RollbackIfAble(bs) {
			t.Errorf("%s: RollbackIfAble reports staged writes", name)
		}
	}
}

func TestVersionedBatchMatchesLoop(t *testing.T) {
	v, err := NewVersioned(NewMemStore(8), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	rng := rand.New(rand.NewSource(42))
	ids := []int{1, 5, 9, 13, 2}
	data := make([][]float64, len(ids))
	for i := range data {
		data[i] = fillSeq(8, float64(rng.Intn(1000)))
	}
	if err := v.WriteBlocks(ids, data); err != nil {
		t.Fatal(err)
	}
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}
	all := []int{0, 1, 2, 5, 9, 13, 15}
	bufs := make([][]float64, len(all))
	for i := range bufs {
		bufs[i] = make([]float64, 8)
	}
	if err := v.ReadBlocks(all, bufs); err != nil {
		t.Fatal(err)
	}
	one := make([]float64, 8)
	for i, id := range all {
		if err := v.ReadBlock(id, one); err != nil {
			t.Fatal(err)
		}
		for j := range one {
			if bufs[i][j] != one[j] {
				t.Fatalf("batch read of %d diverges from loop read", id)
			}
		}
	}
}

func TestVersionedConcurrentSnapshotReadsDuringWrites(t *testing.T) {
	// Raw MemStore is concurrency-safe; the versioned layer must keep
	// snapshot readers consistent while the builder rewrites and flips.
	v, err := NewVersioned(NewMemStore(8), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	write := func(val float64) {
		for id := 0; id < 8; id++ {
			if err := v.WriteBlock(id, fillSeq(8, val+float64(id))); err != nil {
				t.Error(err)
				return
			}
		}
		if err := v.Commit(); err != nil {
			t.Error(err)
		}
	}
	write(1000)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]float64, 8)
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := v.Acquire()
				base := -1.0
				ok := true
				for id := 0; id < 8 && ok; id++ {
					if err := snap.ReadBlock(id, buf); err != nil {
						t.Error(err)
						ok = false
						break
					}
					got := buf[0] - float64(id)
					if base < 0 {
						base = got
					} else if got != base {
						t.Errorf("snapshot epoch %d mixes versions: block %d base %v got %v", snap.Epoch(), id, base, got)
						ok = false
					}
				}
				snap.Release()
				if !ok {
					return
				}
			}
		}()
	}
	for round := 2; round <= 20; round++ {
		write(float64(1000 * round))
	}
	close(stop)
	wg.Wait()
}

func TestChecksumReaderMatchesChecksummed(t *testing.T) {
	dir := t.TempDir()
	d, err := CreateDurable(filepath.Join(dir, "d.blk"), 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for id := 0; id < 6; id++ {
		if err := d.WriteBlock(id, fillSeq(8, float64(50+id))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	r, err := d.ReadOnlyView()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.BlockSize() != d.BlockSize() {
		t.Fatalf("view block size %d != durable %d", r.BlockSize(), d.BlockSize())
	}
	// Stage an uncommitted write: the view must keep seeing committed bytes.
	if err := d.WriteBlock(0, fillSeq(8, 12345)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]float64, 8)
			for iter := 0; iter < 50; iter++ {
				for id := 0; id < 6; id++ {
					if err := r.ReadBlock(id, buf); err != nil {
						t.Error(err)
						return
					}
					if buf[0] != float64(50+id) {
						t.Errorf("view block %d = %v, want %d", id, buf[0], 50+id)
						return
					}
				}
				bufs := [][]float64{make([]float64, 8), make([]float64, 8), make([]float64, 8)}
				if err := r.ReadBlocks([]int{5, 0, 7}, bufs); err != nil {
					t.Error(err)
					return
				}
				if bufs[0][0] != 55 || bufs[1][0] != 50 {
					t.Errorf("batch view read wrong: %v %v", bufs[0][0], bufs[1][0])
					return
				}
				for _, x := range bufs[2] {
					if x != 0 {
						t.Errorf("unwritten block 7 non-zero via view")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := r.WriteBlock(1, make([]float64, 8)); err == nil {
		t.Fatal("view write succeeded, want read-only error")
	}
}

func TestSplitRWRouting(t *testing.T) {
	dir := t.TempDir()
	d, err := CreateDurable(filepath.Join(dir, "d.blk"), 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := d.ReadOnlyView()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSplitRW(r, NewLocked(d))
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if err := sp.WriteBlock(2, fillSeq(8, 7)); err != nil {
		t.Fatal(err)
	}
	// Before commit the read leg sees committed state (zeros).
	buf := make([]float64, 8)
	if err := sp.ReadBlock(2, buf); err != nil {
		t.Fatal(err)
	}
	for _, x := range buf {
		if x != 0 {
			t.Fatalf("split read leg observed staged write: %v", buf)
		}
	}
	// A sync goes down the write leg to the Durable, through a Counting
	// that counts it.
	c := NewCounting(sp)
	if err := SyncIfAble(c); err != nil || c.Stats().Syncs != 1 {
		t.Fatalf("sync through the split = %v with %d syncs counted, want nil and 1", err, c.Stats().Syncs)
	}
	if err := sp.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := sp.ReadBlock(2, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 7 {
		t.Fatalf("split read after commit = %v, want 7", buf[0])
	}
	if corrupt, err := sp.VerifyBlocks([]int{0, 1, 2}); err != nil || len(corrupt) != 0 {
		t.Fatalf("verify = %v, %v", corrupt, err)
	}
}

// oldEpochs is the allocator and reclamation rule of this layer as it ran
// before reclamation became incremental, with the I/O stripped: every flip,
// rollback and retiring release re-marks every block of every live table
// and rebuilds the free list from scratch (sweep), and stats walks the
// tables again. It is the model the incremental allocator must match id for
// id: crash campaigns, the warm-cache reuse test and the benchmark's
// stored-bytes row all depend on the physical layout it produces. Table
// pages are copy-on-write blocks like data: a flip takes a fresh block for
// each page its batch dirtied, in page order, after the batch's data. The
// table the other superblock slot describes (prev) stays live until the
// next flip, as if pinned.
type oldEpochs struct {
	logical, dataBase, pageSize int
	cur, prev                   *oldTable
	tables                      []*oldTable
	overlay                     map[int]int
	free                        []int
	next                        int
}

type oldTable struct {
	epoch uint64
	phys  []int64
	pages []int // block of each table page, -1 = none
	refs  int
}

func newOldEpochs(logical, dataBase, pageSize int) *oldEpochs {
	phys := make([]int64, logical)
	for i := range phys {
		phys[i] = -1
	}
	m := &oldEpochs{logical: logical, dataBase: dataBase, pageSize: pageSize, overlay: make(map[int]int)}
	m.cur = &oldTable{phys: phys, pages: noPages((logical + pageSize - 1) / pageSize)}
	m.tables = []*oldTable{m.cur}
	m.sweep()
	return m
}

func (m *oldEpochs) sweep() {
	used := make(map[int]struct{})
	high := m.dataBase
	mark := func(p int) {
		used[p] = struct{}{}
		if p+1 > high {
			high = p + 1
		}
	}
	for _, t := range m.tables {
		for _, p := range t.phys {
			if p >= 0 {
				mark(int(p))
			}
		}
		for _, p := range t.pages {
			if p >= 0 {
				mark(p)
			}
		}
	}
	for _, p := range m.overlay {
		mark(p)
	}
	m.next = high
	free := make([]int, 0, high-m.dataBase-len(used))
	for p := m.dataBase; p < high; p++ {
		if _, ok := used[p]; !ok {
			free = append(free, p)
		}
	}
	m.free = free
}

// reserve gives prev up when need blocks exceed the free list and prev,
// unpinned, maps at least half as many blocks the current table does not
// as there are logical blocks.
func (m *oldEpochs) reserve(need int) {
	p := m.prev
	if need <= len(m.free) || p == nil || p.refs > 0 {
		return
	}
	curUsed := make(map[int]bool)
	for _, b := range m.cur.blocks() {
		curUsed[b] = true
	}
	held := 0
	for _, b := range p.blocks() {
		if !curUsed[b] {
			held++
		}
	}
	if 2*held >= m.logical {
		m.prev = nil
		m.retire(p)
		m.sweep()
	}
}

// take hands out the lowest free block, else grows the file.
func (m *oldEpochs) take() int {
	if len(m.free) > 0 {
		phys := m.free[0]
		m.free = m.free[1:]
		return phys
	}
	m.next++
	return m.next - 1
}

// alloc reports the physical id a write of the logical id lands on, and
// whether it is a fresh hand-out (which fires the reuse hook) rather than a
// rewrite in place within the building epoch.
func (m *oldEpochs) alloc(id int) (phys int, fresh bool) {
	if phys, ok := m.overlay[id]; ok {
		return phys, false
	}
	phys = m.take()
	m.overlay[id] = phys
	return phys, true
}

func (m *oldEpochs) retire(t *oldTable) {
	for i, lt := range m.tables {
		if lt == t {
			m.tables = append(m.tables[:i], m.tables[i+1:]...)
			return
		}
	}
}

// commit flips and returns the blocks it handed to table pages.
func (m *oldEpochs) commit() []int {
	if len(m.overlay) == 0 {
		return nil
	}
	next := &oldTable{epoch: m.cur.epoch + 1, phys: append([]int64(nil), m.cur.phys...), pages: append([]int(nil), m.cur.pages...)}
	dirty := map[int]bool{}
	for id, phys := range m.overlay {
		next.phys[id] = int64(phys)
		dirty[id/m.pageSize] = true
	}
	m.reserve(len(dirty))
	var taken []int
	for p := range next.pages {
		if dirty[p] {
			next.pages[p] = m.take()
			taken = append(taken, next.pages[p])
		}
	}
	old := m.prev
	m.prev, m.cur = m.cur, next
	m.tables = append(m.tables, next)
	m.overlay = make(map[int]int)
	if old != nil && old.refs == 0 {
		m.retire(old)
	}
	m.sweep()
	return taken
}

func (m *oldEpochs) rollback() {
	m.overlay = make(map[int]int)
	m.sweep()
}

func (m *oldEpochs) acquire() *oldTable {
	m.cur.refs++
	return m.cur
}

func (m *oldEpochs) release(t *oldTable) {
	t.refs--
	if t.refs == 0 && t != m.cur && t != m.prev {
		m.retire(t)
		m.sweep()
	}
}

// reopen is what load() rebuilds from the medium: the current table and the
// one the other slot describes.
func (m *oldEpochs) reopen() {
	m.cur.refs = 0
	m.tables = []*oldTable{m.cur}
	if m.prev != nil {
		m.prev.refs = 0
		m.tables = []*oldTable{m.prev, m.cur}
	}
	m.sweep()
}

// blocks lists every block a table claims: data, then pages.
func (t *oldTable) blocks() []int {
	var out []int
	for _, p := range t.phys {
		if p >= 0 {
			out = append(out, int(p))
		}
	}
	for _, p := range t.pages {
		if p >= 0 {
			out = append(out, p)
		}
	}
	return out
}

func (m *oldEpochs) stats() EpochStats {
	st := EpochStats{Epoch: m.cur.epoch, OldestPinned: m.cur.epoch, FreeBlocks: len(m.free), PhysBlocks: m.next}
	curUsed := make(map[int]struct{})
	for _, p := range m.cur.blocks() {
		curUsed[p] = struct{}{}
	}
	for _, p := range m.overlay {
		curUsed[p] = struct{}{}
	}
	held := make(map[int]struct{})
	for _, t := range m.tables {
		st.Pinned += t.refs
		if t.refs > 0 && t.epoch < st.OldestPinned {
			st.OldestPinned = t.epoch
		}
		if t == m.cur {
			continue
		}
		for _, p := range t.blocks() {
			if _, ok := curUsed[p]; !ok {
				held[p] = struct{}{}
			}
		}
	}
	st.Reclaimable = len(held)
	return st
}

// keepOpen lets a test close a Versioned and open another over the same
// in-memory medium.
type keepOpen struct{ BlockStore }

func (keepOpen) Close() error { return nil }

// epochWalk drives a Versioned and the oldEpochs model through the same
// operations and compares them after every one.
type epochWalk struct {
	t       *testing.T
	base    keepOpen
	v       *Versioned
	m       *oldEpochs
	stamp   float64
	reused  []int           // ids the reuse hook fired for since the last check
	want    []int           // ids the model handed out fresh since the last check
	cur     map[int]float64 // committed first value of each written logical block
	pending map[int]float64 // the building epoch's writes
	pins    []walkPin
}

type walkPin struct {
	snap    *Snapshot
	table   *oldTable
	content map[int]float64
}

const (
	walkBlockSize = 4
	walkLogical   = 22 // three table pages of eight entries, the last one partial
)

func newEpochWalk(t *testing.T) *epochWalk {
	w := &epochWalk{t: t, base: keepOpen{NewMemStore(walkBlockSize)}, cur: map[int]float64{}, pending: map[int]float64{}}
	w.open()
	w.m = newOldEpochs(walkLogical, w.v.dataBase, w.v.pageSize)
	return w
}

func (w *epochWalk) open() {
	v, err := NewVersioned(w.base, walkLogical)
	if err != nil {
		w.t.Fatal(err)
	}
	v.OnReuse(func(phys int) { w.reused = append(w.reused, phys) })
	w.v = v
}

// write stages the ids as one WriteBlock or one WriteBlocks; a repeated id
// is a rewrite in place.
func (w *epochWalk) write(ids ...int) {
	w.t.Helper()
	data := make([][]float64, len(ids))
	need := 0
	for _, id := range ids {
		if _, ok := w.m.overlay[id]; !ok {
			need++
		}
	}
	w.m.reserve(need)
	for i, id := range ids {
		w.stamp++
		data[i] = fillSeq(walkBlockSize, w.stamp*10)
		w.pending[id] = data[i][0]
		phys, fresh := w.m.alloc(id)
		if fresh {
			w.want = append(w.want, phys)
			for _, pin := range w.pins {
				for _, p := range pin.table.blocks() {
					if p == phys {
						w.t.Fatalf("model reissued physical %d while epoch %d is pinned", phys, pin.table.epoch)
					}
				}
			}
		}
	}
	var err error
	if len(ids) == 1 {
		err = w.v.WriteBlock(ids[0], data[0])
	} else {
		err = w.v.WriteBlocks(ids, data)
	}
	if err != nil {
		w.t.Fatal(err)
	}
	for _, id := range ids {
		if got, want := w.v.overlay[id], w.m.overlay[id]; got != want {
			w.t.Fatalf("logical %d written to physical %d, the sweep allocator hands out %d", id, got, want)
		}
	}
	w.check()
}

func (w *epochWalk) commit() {
	w.t.Helper()
	if err := w.v.Commit(); err != nil {
		w.t.Fatal(err)
	}
	w.want = append(w.want, w.m.commit()...)
	for id, x := range w.pending {
		w.cur[id] = x
	}
	clear(w.pending)
	w.check()
}

func (w *epochWalk) rollback() {
	w.t.Helper()
	w.v.Rollback()
	w.m.rollback()
	clear(w.pending)
	w.check()
}

func (w *epochWalk) acquire() {
	w.t.Helper()
	content := make(map[int]float64, len(w.cur))
	for id, x := range w.cur {
		content[id] = x
	}
	w.pins = append(w.pins, walkPin{snap: w.v.Acquire(), table: w.m.acquire(), content: content})
	w.check()
}

func (w *epochWalk) release(i int) {
	w.t.Helper()
	pin := w.pins[i]
	w.pins = append(w.pins[:i], w.pins[i+1:]...)
	pin.snap.Release()
	pin.snap.Release() // idempotent
	w.m.release(pin.table)
	w.check()
}

// reopen closes the layer (sealing the building epoch, as Close does) and
// loads a fresh one from the medium; pins do not survive it.
func (w *epochWalk) reopen() {
	w.t.Helper()
	for len(w.pins) > 0 {
		w.release(len(w.pins) - 1)
	}
	if err := w.v.Close(); err != nil {
		w.t.Fatal(err)
	}
	w.want = append(w.want, w.m.commit()...)
	for id, x := range w.pending {
		w.cur[id] = x
	}
	clear(w.pending)
	w.open()
	w.m.reopen()
	w.check()
}

func (w *epochWalk) check() {
	w.t.Helper()
	v, m := w.v, w.m
	if got := v.PhysExtent(); got != m.next {
		w.t.Fatalf("high-water mark %d, sweep gives %d", got, m.next)
	}
	var free []int
	for i, b := range v.birth {
		if b == freeBlock {
			free = append(free, v.dataBase+i)
		}
	}
	if !slices.Equal(free, m.free) || v.nfree != len(free) {
		w.t.Fatalf("free set %v (count %d), sweep gives %v", free, v.nfree, m.free)
	}
	// Every id below the mark on the heap is free and listed once; the
	// lowest of them is what the next allocation takes.
	seen := make(map[int]bool)
	for i, p := range v.free {
		if i > 0 && v.free[(i-1)/2] > p {
			w.t.Fatalf("free heap out of order at %d: %v", i, v.free)
		}
		if p >= m.next {
			continue
		}
		if seen[p] || v.birth[p-v.dataBase] != freeBlock {
			w.t.Fatalf("free heap %v lists %d, free set is %v", v.free, p, free)
		}
		seen[p] = true
	}
	if len(seen) != len(free) {
		w.t.Fatalf("free heap %v misses part of the free set %v", v.free, free)
	}
	if got, want := v.Stats(), m.stats(); got != want {
		w.t.Fatalf("stats %+v, the table walk gives %+v", got, want)
	}
	if !slices.Equal(w.reused, w.want) {
		w.t.Fatalf("reuse hook fired for %v, fresh hand-outs were %v", w.reused, w.want)
	}
	w.reused, w.want = w.reused[:0], w.want[:0]

	// Contents: the builder reads its own writes over the committed state,
	// every pin reads the epoch it pinned.
	buf := make([]float64, walkBlockSize)
	for id := 0; id < walkLogical; id++ {
		want, ok := w.pending[id]
		if !ok {
			want = w.cur[id]
		}
		if err := v.ReadBlock(id, buf); err != nil {
			w.t.Fatal(err)
		}
		if buf[0] != want {
			w.t.Fatalf("builder reads %v for logical %d, want %v", buf[0], id, want)
		}
	}
	ids := make([]int, walkLogical)
	bufs := make([][]float64, walkLogical)
	for id := range ids {
		ids[id], bufs[id] = id, make([]float64, walkBlockSize)
	}
	for _, pin := range w.pins {
		if pin.snap.Epoch() != pin.table.epoch {
			w.t.Fatalf("pin of epoch %d, model pinned %d", pin.snap.Epoch(), pin.table.epoch)
		}
		if err := pin.snap.ReadBlocks(ids, bufs); err != nil {
			w.t.Fatal(err)
		}
		for id := range ids {
			if bufs[id][0] != pin.content[id] {
				w.t.Fatalf("pin of epoch %d reads %v for logical %d, want %v: a block it maps was reissued", pin.snap.Epoch(), bufs[id][0], id, pin.content[id])
			}
		}
	}
}

// TestVersionedAllocatorMatchesSweepModel walks random operation sequences
// and holds the incremental allocator to the old full sweep after every
// step: same free set, same mark, same id for every hand-out, the reuse hook
// once per hand-out, same stats, and pinned contents intact.
func TestVersionedAllocatorMatchesSweepModel(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := newEpochWalk(t)
		for step := 0; step < 2000; step++ {
			switch r := rng.Intn(100); {
			case r < 30:
				w.write(rng.Intn(walkLogical))
			case r < 45:
				ids := make([]int, 2+rng.Intn(5))
				for i := range ids {
					ids[i] = rng.Intn(walkLogical)
				}
				w.write(ids...)
			case r < 65:
				w.commit()
			case r < 70:
				w.rollback()
			case r < 82:
				if len(w.pins) < 6 {
					w.acquire()
				}
			case r < 98:
				if len(w.pins) > 0 {
					w.release(rng.Intn(len(w.pins)))
				}
			default:
				w.reopen()
			}
		}
		for len(w.pins) > 0 {
			w.release(0)
		}
		if err := w.v.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestVersionedReclamationShapes scripts the cases the full sweep handled
// without knowing it, each checked against the model after every step.
func TestVersionedReclamationShapes(t *testing.T) {
	fill := func(w *epochWalk) {
		for id := 0; id < walkLogical; id++ {
			w.write(id)
		}
		w.commit()
	}
	t.Run("pin held across hundreds of flips", func(t *testing.T) {
		w := newEpochWalk(t)
		fill(w)
		w.acquire()
		for flip := 0; flip < 300; flip++ {
			w.write(flip%walkLogical, (flip*7+3)%walkLogical)
			w.commit()
		}
		// The last flip rewrote logical 13 and 6, on table pages 1 and 0:
		// the previous epoch keeps those two data blocks and two pages.
		if st := w.v.Stats(); st.Reclaimable != walkLogical+w.v.pages+4 {
			t.Fatalf("reclaimable %d with the first epoch pinned, want its %d data blocks and %d table pages, and the previous epoch's 4", st.Reclaimable, walkLogical, w.v.pages)
		}
		w.release(0)
		if st := w.v.Stats(); st.Reclaimable != 4 || st.FreeBlocks == 0 {
			t.Fatalf("after the release stats = %+v, want the pinned epoch's blocks free", st)
		}
	})
	t.Run("three pins released middle first", func(t *testing.T) {
		w := newEpochWalk(t)
		fill(w)
		for pin := 0; pin < 3; pin++ {
			w.acquire()
			w.write(1, 2+pin, 9)
			w.commit()
		}
		w.release(1)
		w.write(1, 9)
		w.commit()
		w.release(1) // the newest pin
		w.release(0) // the oldest
		// Left held: what the last flip superseded (logical 1 and 9, table
		// pages 0 and 1), which the previous epoch keeps.
		if st := w.v.Stats(); st.Reclaimable != 4 || st.Pinned != 0 {
			t.Fatalf("stats = %+v after every release", st)
		}
	})
	t.Run("rollback after a top-of-file allocation", func(t *testing.T) {
		w := newEpochWalk(t)
		fill(w)
		ext := w.v.PhysExtent()
		w.write(0, 1, 2) // nothing is free: all three grow the file
		if w.v.PhysExtent() != ext+3 {
			t.Fatalf("extent %d, want %d", w.v.PhysExtent(), ext+3)
		}
		w.rollback()
		if w.v.PhysExtent() != ext {
			t.Fatalf("extent %d after rollback, want %d", w.v.PhysExtent(), ext)
		}
		w.write(5) // re-issues the id the rollback returned: the hook must fire again
		w.commit()
	})
	t.Run("overlay rewrites a block born in a pinned epoch", func(t *testing.T) {
		w := newEpochWalk(t)
		fill(w)
		w.acquire() // epoch 1
		w.write(4)
		w.commit()  // logical 4's block is born in epoch 2
		w.acquire() // epoch 2
		w.write(7)
		w.commit()
		w.write(4) // supersedes the epoch-2 block while epochs 1 and 2 are pinned
		w.commit()
		w.release(0) // epoch 1 never mapped that block
		w.release(0) // epoch 2 did
		// Left held: logical 4's epoch-3 block and table page 0, which the
		// previous epoch keeps.
		if st := w.v.Stats(); st.Reclaimable != 2 {
			t.Fatalf("stats = %+v after every release", st)
		}
	})
}

// TestVersionedRejectsAliasedTable: reclamation frees a block when the one
// logical id mapping it is rewritten, so a table that maps two logical ids
// to one physical block must not open.
func TestVersionedRejectsAliasedTable(t *testing.T) {
	base := keepOpen{NewMemStore(8)}
	v, err := NewVersioned(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 2; id++ {
		if err := v.WriteBlock(id, fillSeq(8, float64(id))); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	// Logical 0 and 1 share the page's first value, low half and high half:
	// point the high half where the low half points.
	at := v.cur.pagePhys[0]
	page := make([]float64, 8)
	if err := base.ReadBlock(at, page); err != nil {
		t.Fatal(err)
	}
	lo := math.Float64bits(page[0]) & math.MaxUint32
	page[0] = math.Float64frombits(lo<<32 | lo)
	if err := base.WriteBlock(at, page); err != nil {
		t.Fatal(err)
	}
	if _, err := NewVersioned(base, 4); err == nil || !strings.Contains(err.Error(), "already maps") {
		t.Fatalf("open of an aliased table = %v, want an error naming the second mapping", err)
	}
}

// flakyWrites fails writes to blocks below floor, and syncs while syncFail
// is positive (counting it down): a device that dies at a chosen step of a
// flip.
type flakyWrites struct {
	BlockStore
	floor    int
	syncFail int
}

var errFlaky = errors.New("flaky device")

func (f *flakyWrites) WriteBlock(id int, data []float64) error {
	if id < f.floor {
		return errFlaky
	}
	return f.BlockStore.WriteBlock(id, data)
}

func (f *flakyWrites) WriteBlocks(ids []int, data [][]float64) error {
	for _, id := range ids {
		if id < f.floor {
			return errFlaky
		}
	}
	return WriteBlocksOf(f.BlockStore, ids, data)
}

func (f *flakyWrites) Sync() error {
	if f.syncFail > 0 {
		f.syncFail--
		return errFlaky
	}
	return nil
}

func (f *flakyWrites) Close() error { return nil }

// TestShadowFlipStates walks the states the shadow-paged flip creates, on
// three-block superblock slots: both slots valid, a flip cut between its
// data sync and its slot write, a slot torn between two epochs, and a
// flip whose second sync failed, retried.
func TestShadowFlipStates(t *testing.T) {
	base := keepOpen{NewMemStore(walkBlockSize)}
	dev := &flakyWrites{BlockStore: base}
	open := func() *Versioned {
		t.Helper()
		v, err := NewVersioned(dev, walkLogical)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	flip := func(v *Versioned, stamp float64, ids ...int) error {
		t.Helper()
		for _, id := range ids {
			if err := v.WriteBlock(id, fillSeq(walkBlockSize, stamp+float64(id))); err != nil {
				t.Fatal(err)
			}
		}
		return v.Commit()
	}
	expect := func(v *Versioned, epoch uint64, stamps map[int]float64) {
		t.Helper()
		if v.Epoch() != epoch {
			t.Fatalf("epoch %d, want %d", v.Epoch(), epoch)
		}
		buf := make([]float64, walkBlockSize)
		for id, stamp := range stamps {
			if err := v.ReadBlock(id, buf); err != nil {
				t.Fatal(err)
			}
			if buf[0] != stamp+float64(id) {
				t.Fatalf("epoch %d: logical %d reads %v, want %v", epoch, id, buf[0], stamp+float64(id))
			}
		}
	}
	v := open()
	if v.hdr < 2 {
		t.Fatalf("slots of %d block(s): the torn case needs two", v.hdr)
	}
	if err := flip(v, 100, 0, 9, 21); err != nil {
		t.Fatal(err)
	}
	if err := flip(v, 200, 9); err != nil {
		t.Fatal(err)
	}
	want2 := map[int]float64{0: 100, 9: 200, 21: 100}

	// Both slots valid: epochs 2 and 1; open takes 2.
	v = open()
	if v.slots[0] != (SlotInfo{Epoch: 2, State: SlotValid}) || v.slots[1] != (SlotInfo{Epoch: 1, State: SlotValid}) {
		t.Fatalf("slots %+v, want epochs 2 and 1 valid", v.slots)
	}
	expect(v, 2, want2)

	// A cut between the data sync and the slot write: epoch 3's data and
	// table pages are on the medium, slot 1 still holds epoch 1 (or a
	// retired slot, had the writes given epoch 1 up).
	for _, id := range []int{0, 21} {
		if err := v.WriteBlock(id, fillSeq(walkBlockSize, 300+float64(id))); err != nil {
			t.Fatal(err)
		}
	}
	free := v.Stats().FreeBlocks
	dev.floor = v.dataBase
	if err := v.Commit(); !errors.Is(err, errFlaky) {
		t.Fatalf("flip with a dead slot write = %v", err)
	}
	if got := v.Stats().FreeBlocks; got > free {
		t.Fatalf("a failed flip freed blocks: %d free, was %d", got, free)
	}
	dev.floor = 0
	v = open()
	expect(v, 2, want2)

	// A torn slot: epoch 3 lands in slot 1's first block only.
	if err := flip(v, 300, 0, 21); err != nil {
		t.Fatal(err)
	}
	head := make([]float64, walkBlockSize)
	if err := base.ReadBlock(v.hdr, head); err != nil {
		t.Fatal(err)
	}
	v = open()
	expect(v, 3, map[int]float64{0: 300, 9: 200, 21: 300})
	if err := flip(v, 400, 9); err != nil { // epoch 4 into slot 0
		t.Fatal(err)
	}
	if err := flip(v, 500, 0); err != nil { // epoch 5 into slot 1
		t.Fatal(err)
	}
	// Slot 1 = epoch 3's first block, epoch 5's others: torn.
	if err := base.WriteBlock(v.hdr, head); err != nil {
		t.Fatal(err)
	}
	v = open()
	if v.slots[1].State != "torn: its blocks carry different epochs" {
		t.Fatalf("slot 1 reads %+v, want torn", v.slots[1])
	}
	expect(v, 4, map[int]float64{0: 300, 9: 400, 21: 300})

	// A sync fails: the flip is in doubt, publishes nothing and frees
	// nothing; a retry commits the same epoch.
	free = v.Stats().FreeBlocks
	dev.syncFail = 2 // the flip and its first retry die at their first sync
	if err := flip(v, 600, 21); !errors.Is(err, errFlaky) {
		t.Fatalf("flip with a dead sync = %v", err)
	}
	if v.Epoch() != 4 || v.Stats().FreeBlocks > free {
		t.Fatalf("a failed flip published epoch %d or freed blocks (%d free, was %d)", v.Epoch(), v.Stats().FreeBlocks, free)
	}
	if err := v.Commit(); !errors.Is(err, errFlaky) {
		t.Fatalf("retry with a dead sync = %v", err)
	}
	if err := v.Commit(); err != nil {
		t.Fatalf("retry: %v", err)
	}
	want5 := map[int]float64{0: 300, 9: 400, 21: 600}
	expect(v, 5, want5)
	expect(open(), 5, want5)
}

// TestRottedCurrentSlotKeepsPreviousEpoch rots the current superblock slot
// after an epoch that took free blocks was rolled back. Open must then
// serve the previous epoch exactly, or fail: the blocks only the previous
// epoch maps are never handed out while a slot describes it. Three shapes:
// a small flip, whose previous epoch is held; a flip after a whole-domain
// rewrite, whose previous epoch the building one gives up; and a store's
// first flip, which gives up the empty epoch 0, so that neither a rotted
// nor a zeroed slot 1 opens as an empty store.
func TestRottedCurrentSlotKeepsPreviousEpoch(t *testing.T) {
	const bs, logical = 8, 16
	write := func(t *testing.T, v *Versioned, stamp float64, ids ...int) {
		t.Helper()
		for _, id := range ids {
			if err := v.WriteBlock(id, fillSeq(bs, stamp+float64(id))); err != nil {
				t.Fatal(err)
			}
		}
	}
	all := make([]int, logical)
	for i := range all {
		all[i] = i
	}
	rot := func(t *testing.T, base BlockStore, slot, hdr int) {
		t.Helper()
		buf := make([]float64, bs)
		if err := base.ReadBlock(slot*hdr, buf); err != nil {
			t.Fatal(err)
		}
		buf[2] = math.Float64frombits(math.Float64bits(buf[2]) ^ 1<<40)
		if err := base.WriteBlock(slot*hdr, buf); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("held", func(t *testing.T) {
		base := keepOpen{NewMemStore(bs)}
		v, err := NewVersioned(base, logical)
		if err != nil {
			t.Fatal(err)
		}
		write(t, v, 100, all...)
		if err := v.Commit(); err != nil {
			t.Fatal(err)
		}
		write(t, v, 200, 0, 1)
		if err := v.Commit(); err != nil {
			t.Fatal(err)
		}
		write(t, v, 300, all...) // wants every free block there is
		v.Rollback()
		rot(t, base, 0, v.hdr) // epoch 2's slot
		v, err = NewVersioned(base, logical)
		if err != nil {
			t.Fatalf("open with epoch 1's slot intact: %v", err)
		}
		if v.Epoch() != 1 {
			t.Fatalf("opened epoch %d, want 1", v.Epoch())
		}
		buf := make([]float64, bs)
		for id := 0; id < logical; id++ {
			if err := v.ReadBlock(id, buf); err != nil {
				t.Fatal(err)
			}
			if buf[0] != 100+float64(id) {
				t.Fatalf("epoch 1 logical %d reads %v, want %v: a later epoch overwrote it", id, buf[0], 100+float64(id))
			}
		}
	})
	t.Run("given up", func(t *testing.T) {
		base := keepOpen{NewMemStore(bs)}
		v, err := NewVersioned(base, logical)
		if err != nil {
			t.Fatal(err)
		}
		for _, stamp := range []float64{100, 200} {
			write(t, v, stamp, all...)
			if err := v.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		ext := v.PhysExtent()
		write(t, v, 300, 0, 1) // epoch 1 holds the whole store: given up
		if v.PhysExtent() != ext {
			t.Fatalf("extent %d -> %d: the epoch grew the file rather than give epoch 1 up", ext, v.PhysExtent())
		}
		v.Rollback()
		probe, err := NewVersioned(base, logical)
		if err != nil {
			t.Fatal(err)
		}
		if probe.slots[1].State != SlotRetired || probe.Epoch() != 2 {
			t.Fatalf("slots %+v at epoch %d, want slot 1 retired beside epoch 2", probe.slots, probe.Epoch())
		}
		rot(t, base, 0, v.hdr)
		if _, err := NewVersioned(base, logical); !errors.Is(err, ErrCorruption) {
			t.Fatalf("open with the current slot rotted and the other retired = %v, want ErrCorruption", err)
		}
	})
	t.Run("first flip", func(t *testing.T) {
		for _, zero := range []bool{false, true} {
			base := keepOpen{NewMemStore(bs)}
			v, err := NewVersioned(base, logical)
			if err != nil {
				t.Fatal(err)
			}
			write(t, v, 100, 0, 1)
			if err := v.Commit(); err != nil {
				t.Fatal(err)
			}
			probe, err := NewVersioned(base, logical)
			if err != nil {
				t.Fatal(err)
			}
			if probe.slots[0].State != SlotRetired || probe.Epoch() != 1 {
				t.Fatalf("slots %+v at epoch %d, want slot 0 retired beside epoch 1", probe.slots, probe.Epoch())
			}
			if zero {
				for i := 0; i < v.hdr; i++ {
					if err := base.WriteBlock(v.hdr+i, make([]float64, bs)); err != nil {
						t.Fatal(err)
					}
				}
			} else {
				rot(t, base, 1, v.hdr)
			}
			if _, err := NewVersioned(base, logical); !errors.Is(err, ErrCorruption) {
				t.Fatalf("open with slot 1 lost (zeroed %v) beside a retired slot 0 = %v, want ErrCorruption", zero, err)
			}
		}
	})
}
