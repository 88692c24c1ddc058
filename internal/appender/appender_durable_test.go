package appender

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
	"github.com/shiftsplit/shiftsplit/internal/wavelet"
)

// durableMems is a Backing over one in-memory durable store: it keeps the
// raw data/journal MemStores so a test can rebuild a Durable over the same
// media after a simulated power cut, and counts how often it was asked.
type durableMems struct {
	data, wal *storage.MemStore
	plan      *storage.CrashPlan
	calls     int
}

func newDurableMems() *durableMems { return &durableMems{} }

func (m *durableMems) backing(_, blockSize int) (storage.BlockStore, error) {
	m.calls++
	m.data = storage.NewMemStore(blockSize + storage.ChecksumOverhead)
	m.wal = storage.NewMemStore(blockSize + storage.JournalOverhead)
	var data, wal storage.BlockStore = m.data, m.wal
	if m.plan != nil {
		data = storage.NewCrashStore(data, m.plan)
		wal = storage.NewCrashStore(wal, m.plan)
	}
	return storage.NewDurable(data, wal)
}

// reopen rebuilds a recovered Durable over the media (no crash plan: power
// is back).
func (m *durableMems) reopen() (*storage.Durable, error) {
	return storage.NewDurable(m.data, m.wal)
}

func baseSlab() *ndarray.Array {
	s := ndarray.New(4, 4)
	s.Each(func(c []int, _ float64) { s.Set(float64(4*c[0]+c[1]+1), c...) })
	return s
}

func secondSlab() *ndarray.Array {
	s := ndarray.New(4, 4)
	s.Each(func(c []int, _ float64) { s.Set(float64(10*c[0]+c[1]), c...) })
	return s
}

// transformIn embeds base (and optionally slab2 at column offset 4) in a
// domain of the given shape and returns its standard transform.
func transformIn(shape []int, withSecond bool) *ndarray.Array {
	full := ndarray.New(shape...)
	full.SubPaste(baseSlab(), []int{0, 0})
	if withSecond {
		full.SubPaste(secondSlab(), []int{0, 4})
	}
	return wavelet.TransformStandard(full)
}

// matchesTransform checks the durable store, tiled as the appender tiles a
// domain of the given shape grown along dimension 1 — every campaign's
// append dimension, so the outermost radix — coefficient-for-coefficient
// against hat, and checks that it holds nothing more: the blocks the domain
// doubled once more would add are zero. Without that a doubling with a
// full top band, which leaves every old block as it was, would pass for
// the state before it.
func matchesTransform(t *testing.T, d *storage.Durable, shape []int, hat *ndarray.Array) bool {
	t.Helper()
	tiling := tile.NewGrowthStandard(log2s(shape), 1, 1)
	st, err := tile.NewStore(d, tiling)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, d.BlockSize())
	for id := tiling.NumBlocks(); id < tiling.Grown(1).NumBlocks(); id++ {
		if err := d.ReadBlock(id, buf); err != nil {
			t.Fatalf("read block %d: %v", id, err)
		}
		if slices.ContainsFunc(buf, func(v float64) bool { return v != 0 }) {
			return false
		}
	}
	ok := true
	hat.Each(func(c []int, want float64) {
		if !ok {
			return
		}
		got, err := st.Get(c)
		if err != nil || !approx(got, want) {
			ok = false
		}
	})
	return ok
}

func approx(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}

func TestAppenderOnDurableBacking(t *testing.T) {
	mems := newDurableMems()
	a, err := NewWithBacking([]int{4, 4}, 1, mems.backing)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Append(1, baseSlab()); err != nil {
		t.Fatal(err)
	}
	// Growing along dim 1 forces an expansion (an atomic batch on a new
	// generation) followed by a merge batch.
	st, err := a.Append(1, secondSlab())
	if err != nil {
		t.Fatal(err)
	}
	if st.Expansions != 1 {
		t.Fatalf("expansions = %d, want 1", st.Expansions)
	}
	got, err := a.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	want := ndarray.New(4, 8)
	want.SubPaste(baseSlab(), []int{0, 0})
	want.SubPaste(secondSlab(), []int{0, 4})
	if !got.EqualApprox(want, 1e-9) {
		t.Fatalf("reconstruction off by %g", got.MaxAbsDiff(want))
	}
}

// TestAppenderCrashDuringAppendIsAtomic crashes an expanding append — the
// doubling and the merge staged into one journal group — at every physical
// mutation index, recovers the media, and requires one of exactly two
// states: the pre-append transform under the [4,4] tiling, or the
// post-append one under the doubled [4,8] tiling. The expanded domain
// without the slab is not a legal state any more, and both legal ones must
// occur. A failed append must leave the in-process appender on the
// pre-append domain and frontier.
func TestAppenderCrashDuringAppendIsAtomic(t *testing.T) {
	buildBase := func(mems *durableMems) *Appender {
		a, err := NewWithBacking([]int{4, 4}, 1, mems.backing)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Append(1, baseSlab()); err != nil {
			t.Fatal(err)
		}
		return a
	}
	pre := transformIn([]int{4, 4}, false)
	post := transformIn([]int{4, 8}, true)

	// Dry run: count the physical mutations of the expanding append.
	dryMems := newDurableMems()
	dryMems.plan = storage.NewCrashPlan(1)
	aDry := buildBase(dryMems)
	preOps := dryMems.plan.Ops()
	if st, err := aDry.Append(1, secondSlab()); err != nil {
		t.Fatal(err)
	} else if st.Expansions != 1 || st.MergeIO.Commits != 1 {
		t.Fatalf("dry run: %+v, want one expansion sealed by the group's one commit", st)
	}
	totalOps := dryMems.plan.Ops() - preOps
	if totalOps < 4 {
		t.Fatalf("append took only %d mutations", totalOps)
	}

	var preSeen, postSeen int
	for w := int64(1); w <= totalOps; w++ {
		mems := newDurableMems()
		mems.plan = storage.NewCrashPlan(1000 + w)
		a := buildBase(mems)
		mems.plan.ArmAt(mems.plan.Ops() + w)
		_, err := a.Append(1, secondSlab())
		if w < totalOps && !errors.Is(err, storage.ErrCrashed) {
			t.Fatalf("trial %d: expected crash, got %v", w, err)
		}
		if err != nil {
			if shape, used := a.Shape(), a.Used(); shape[1] != 4 || used[1] != 4 {
				t.Fatalf("trial %d: shape %v, used %v after a failed append, want the pre-append [4 4]", w, shape, used)
			}
		}
		if mems.calls != 1 {
			t.Fatalf("trial %d: backing called %d times, want once", w, mems.calls)
		}
		d, err := mems.reopen()
		if err != nil {
			t.Fatalf("trial %d: recover: %v", w, err)
		}
		switch {
		case matchesTransform(t, d, []int{4, 4}, pre):
			preSeen++
		case matchesTransform(t, d, []int{4, 8}, post):
			postSeen++
		default:
			t.Fatalf("trial %d: neither the pre- nor the post-append transform after recovery", w)
		}
		d.Close()
	}
	t.Logf("append campaign: %d trials, pre=%d post=%d", totalOps, preSeen, postSeen)
	if preSeen == 0 || postSeen == 0 {
		t.Fatalf("campaign did not exercise both outcomes (pre=%d post=%d)", preSeen, postSeen)
	}
}

// TestFileBackedAppenderKeepsOneStore: an appender on files doubles its
// domain in place, so five doublings leave one data file and its journal —
// not a generation of each per doubling — holding about what the
// transform's tiles hold.
func TestFileBackedAppenderKeepsOneStore(t *testing.T) {
	dir := t.TempDir()
	calls := 0
	a, err := NewWithBacking([]int{8, 8}, 3, func(_, blockSize int) (storage.BlockStore, error) {
		calls++
		return storage.CreateDurable(filepath.Join(dir, "append.wav"), blockSize, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	expansions := 0
	for col := 0; col < 256; col += 16 {
		st, err := a.Append(1, randSlab(rng, 8, 16))
		if err != nil {
			t.Fatal(err)
		}
		expansions += st.Expansions
	}
	if err := a.Store().Close(); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || expansions != 5 {
		t.Fatalf("backing called %d times over %d doublings, want once over 5", calls, expansions)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	var bytes int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, e.Name())
		bytes += info.Size()
	}
	if len(names) != 2 || names[0] != "append.wav" || names[1] != "append.wav.wal" {
		t.Fatalf("directory holds %v, want the data file and its journal", names)
	}
	user := int64(8 * 256 * 8)
	t.Logf("%d bytes stored for %d user bytes (%.3f)", bytes, user, float64(bytes)/float64(user))
	if float64(bytes) > 1.4*float64(user) {
		t.Errorf("%d bytes stored for %d user bytes, want at most 1.4x", bytes, user)
	}
}

// TestFailedExpansionRollsBack: a device fault while an expansion reads the
// old top tiles fails the append before anything is committed, so the
// appender rolls the staged writes, the domain, its tiling and the
// frontier back and stays usable — where an expansion that committed on
// its own had to poison it.
func TestFailedExpansionRollsBack(t *testing.T) {
	var data *storage.Faulty
	a, err := NewWithBacking([]int{4, 4}, 1, func(_, blockSize int) (storage.BlockStore, error) {
		data = storage.NewFaulty(storage.NewMemStore(blockSize + storage.ChecksumOverhead))
		return storage.NewDurable(data, storage.NewMemStore(blockSize+storage.JournalOverhead))
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Append(1, baseSlab()); err != nil {
		t.Fatal(err)
	}
	data.FailReadAfter(1)
	if _, err := a.Append(1, secondSlab()); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("append over a failing read: %v, want the injected fault", err)
	}
	if a.Poisoned() != nil {
		t.Fatalf("a failed expansion poisoned the appender: %v", a.Poisoned())
	}
	if shape, used := a.Shape(), a.Used(); shape[1] != 4 || used[1] != 4 {
		t.Fatalf("shape %v, used %v after the failed append, want the pre-append [4 4]", shape, used)
	}
	data.FailReadAfter(0)
	if st, err := a.Append(1, secondSlab()); err != nil || st.Expansions != 1 {
		t.Fatalf("retried append: %+v, %v", st, err)
	}
	got, err := a.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	want := ndarray.New(4, 8)
	want.SubPaste(baseSlab(), []int{0, 0})
	want.SubPaste(secondSlab(), []int{0, 4})
	if !got.EqualApprox(want, 1e-9) {
		t.Fatalf("reconstruction after the retry off by %g", got.MaxAbsDiff(want))
	}
}
