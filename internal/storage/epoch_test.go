package storage

import (
	"errors"
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
	if st.Reclaimable != 4 {
		t.Fatalf("reclaimable = %d, want 4 (old epoch's blocks held by the pin)", st.Reclaimable)
	}
	if st.FreeBlocks != 0 {
		t.Fatalf("free = %d, want 0 while the pin holds", st.FreeBlocks)
	}
	snap.Release()
	st = v.Stats()
	if st.Pinned != 0 || st.Reclaimable != 0 {
		t.Fatalf("after release stats = %+v, want no pins, no held blocks", st)
	}
	// Epoch 1's four blocks sit below epoch 2's in the physical space, so
	// releasing the pin must put exactly those four on the free list.
	if st.FreeBlocks != 4 {
		t.Fatalf("after release free=%d phys=%d dataBase=%d, want 4 free", st.FreeBlocks, st.PhysBlocks, v.dataBase)
	}

	// Epoch 3 must reuse reclaimed space rather than growing the file.
	before := v.PhysExtent()
	for id := 0; id < 4; id++ {
		if err := v.WriteBlock(id, fillSeq(8, float64(200+id))); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}
	if after := v.PhysExtent(); after > before {
		t.Fatalf("epoch 3 grew the file %d -> %d despite a free list", before, after)
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
// leg, Versioned → Counting → SplitRW → Locked → Durable, stages a batch and
// rolls it back: every layer on the way down forwards the rollback, so the
// Durable holds nothing for a later commit or Close to seal.
func TestRollbackReachesDurable(t *testing.T) {
	dir := t.TempDir()
	d, err := CreateDurable(filepath.Join(dir, "v.blk"), 8, nil)
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
	for id := 0; id < 4; id++ {
		if err := v.WriteBlock(id, fillSeq(8, float64(id))); err != nil {
			t.Fatal(err)
		}
	}
	if d.Pending() == 0 {
		t.Fatal("the batch was not staged at the Durable")
	}
	v.Rollback()
	if n := d.Pending(); n != 0 {
		t.Fatalf("Durable still stages %d blocks after Versioned.Rollback", n)
	}
	if !RollbackIfAble(counting) {
		t.Fatal("the forwarding layers over a Durable report that nothing stages")
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
	// A staged read goes down the write leg and sees it, through a Counting
	// that counts it like any read.
	c := NewCounting(sp)
	if err := ReadStagedBlocksOf(c, []int{2}, [][]float64{buf}); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 7 || c.Stats().Reads != 1 {
		t.Fatalf("staged read = %v with %d reads counted, want 7 and 1", buf[0], c.Stats().Reads)
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
// stored-bytes row all depend on the physical layout it produces.
type oldEpochs struct {
	logical, dataBase int
	cur               *oldTable
	tables            []*oldTable
	overlay           map[int]int
	free              []int
	next              int
}

type oldTable struct {
	epoch uint64
	phys  []int64
	refs  int
}

func newOldEpochs(logical, dataBase int) *oldEpochs {
	phys := make([]int64, logical)
	for i := range phys {
		phys[i] = -1
	}
	m := &oldEpochs{logical: logical, dataBase: dataBase, overlay: make(map[int]int)}
	m.cur = &oldTable{phys: phys}
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

// alloc reports the physical id a write of the logical id lands on, and
// whether it is a fresh hand-out (which fires the reuse hook) rather than a
// rewrite in place within the building epoch.
func (m *oldEpochs) alloc(id int) (phys int, fresh bool) {
	if phys, ok := m.overlay[id]; ok {
		return phys, false
	}
	if len(m.free) > 0 {
		phys = m.free[0]
		m.free = m.free[1:]
	} else {
		phys = m.next
		m.next++
	}
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

func (m *oldEpochs) commit() {
	if len(m.overlay) == 0 {
		return
	}
	next := &oldTable{epoch: m.cur.epoch + 1, phys: append([]int64(nil), m.cur.phys...)}
	for id, phys := range m.overlay {
		next.phys[id] = int64(phys)
	}
	old := m.cur
	m.cur = next
	m.tables = append(m.tables, next)
	m.overlay = make(map[int]int)
	if old.refs == 0 {
		m.retire(old)
	}
	m.sweep()
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
	if t.refs == 0 && t != m.cur {
		m.retire(t)
		m.sweep()
	}
}

// reopen is what load() rebuilds from the medium: the current table alone.
func (m *oldEpochs) reopen() {
	m.cur.refs = 0
	m.tables = []*oldTable{m.cur}
	m.sweep()
}

func (m *oldEpochs) stats() EpochStats {
	st := EpochStats{Epoch: m.cur.epoch, OldestPinned: m.cur.epoch, FreeBlocks: len(m.free), PhysBlocks: m.next}
	curUsed := make(map[int]struct{})
	for _, p := range m.cur.phys {
		if p >= 0 {
			curUsed[int(p)] = struct{}{}
		}
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
		for _, p := range t.phys {
			if p < 0 {
				continue
			}
			if _, ok := curUsed[int(p)]; !ok {
				held[int(p)] = struct{}{}
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
	walkLogical   = 22 // six table pages, the last one partial
)

func newEpochWalk(t *testing.T) *epochWalk {
	w := &epochWalk{t: t, base: keepOpen{NewMemStore(walkBlockSize)}, cur: map[int]float64{}, pending: map[int]float64{}}
	w.open()
	w.m = newOldEpochs(walkLogical, w.v.dataBase)
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
	for i, id := range ids {
		w.stamp++
		data[i] = fillSeq(walkBlockSize, w.stamp*10)
		w.pending[id] = data[i][0]
		phys, fresh := w.m.alloc(id)
		if fresh {
			w.want = append(w.want, phys)
			for _, pin := range w.pins {
				for _, p := range pin.table.phys {
					if int(p) == phys {
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
	w.m.commit()
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
	w.m.commit()
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
		if st := w.v.Stats(); st.Reclaimable != walkLogical {
			t.Fatalf("reclaimable %d with the first epoch pinned, want its %d blocks", st.Reclaimable, walkLogical)
		}
		w.release(0)
		if st := w.v.Stats(); st.Reclaimable != 0 || st.FreeBlocks == 0 {
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
		if st := w.v.Stats(); st.Reclaimable != 0 || st.Pinned != 0 {
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
		if st := w.v.Stats(); st.Reclaimable != 0 {
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
	page := make([]float64, 8)
	if err := base.ReadBlock(v.hdr, page); err != nil {
		t.Fatal(err)
	}
	page[1] = page[0]
	if err := base.WriteBlock(v.hdr, page); err != nil {
		t.Fatal(err)
	}
	if _, err := NewVersioned(base, 4); err == nil || !strings.Contains(err.Error(), "already maps") {
		t.Fatalf("open of an aliased table = %v, want an error naming the second mapping", err)
	}
}
