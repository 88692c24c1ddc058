package shiftsplit

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// TestVersionedStoreMatchesPlain proves the epoch layer is transparent to
// the maintenance and query semantics: a versioned store and a plain store
// driven through the identical pipeline agree bit-for-bit at every step.
func TestVersionedStoreMatchesPlain(t *testing.T) {
	for _, form := range []Form{Standard, NonStandard} {
		t.Run(form.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			src := randArray(rng, 16, 16)
			mk := func(versioned bool) *Store {
				st, err := CreateStore(StoreOptions{Shape: []int{16, 16}, Form: form, TileBits: 1, Versioned: versioned})
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			ver, plain := mk(true), mk(false)
			defer ver.Close()
			defer plain.Close()
			if !ver.Versioned() || plain.Versioned() {
				t.Fatal("Versioned() flag wrong")
			}

			step := func(name string) {
				t.Helper()
				a, err := ver.ReadTransform()
				if err != nil {
					t.Fatalf("%s: versioned read: %v", name, err)
				}
				b, err := plain.ReadTransform()
				if err != nil {
					t.Fatalf("%s: plain read: %v", name, err)
				}
				if !equalExact(a, b) {
					t.Fatalf("%s: versioned and plain transforms diverge", name)
				}
			}

			if err := ver.TransformChunked(src, 2); err != nil {
				t.Fatal(err)
			}
			if err := plain.TransformChunked(src, 2); err != nil {
				t.Fatal(err)
			}
			step("chunked transform")
			if got := ver.CurrentEpoch(); got != 1 {
				t.Fatalf("epoch after transform = %d, want 1", got)
			}

			delta := randArray(rng, 4, 4)
			blk := CubeBlock(2, 1, 2)
			dh := Transform(delta, form)
			if err := ver.MergeBlock(blk, dh); err != nil {
				t.Fatal(err)
			}
			if err := plain.MergeBlock(blk, dh); err != nil {
				t.Fatal(err)
			}
			step("merge block")
			if got := ver.CurrentEpoch(); got != 2 {
				t.Fatalf("epoch after merge = %d, want 2", got)
			}

			if err := ver.Materialize(src); err != nil {
				t.Fatal(err)
			}
			if err := plain.Materialize(src); err != nil {
				t.Fatal(err)
			}
			for _, p := range [][]int{{0, 0}, {7, 3}, {15, 15}} {
				va, ia, err := ver.Point(p...)
				if err != nil {
					t.Fatal(err)
				}
				vb, ib, err := plain.Point(p...)
				if err != nil {
					t.Fatal(err)
				}
				if va != vb || ia != ib {
					t.Fatalf("point %v: versioned (%g, %d) != plain (%g, %d)", p, va, ia, vb, ib)
				}
			}
			sa, _, err := ver.RangeSum([]int{2, 2}, []int{8, 4})
			if err != nil {
				t.Fatal(err)
			}
			sb, _, err := plain.RangeSum([]int{2, 2}, []int{8, 4})
			if err != nil {
				t.Fatal(err)
			}
			// RangeSum's summation order is not deterministic run to run
			// (last-ulp wobble), so this comparison is tolerance-based.
			if d := sa - sb; d > 1e-9 || d < -1e-9 {
				t.Fatalf("range sum: versioned %g != plain %g", sa, sb)
			}
		})
	}
}

// TestVersionedStoreReopen exercises the on-disk epoch format end to end:
// transform + merge on a durable versioned store, reopen, verify state and
// epoch, and require a clean fsck that reports the superblock.
func TestVersionedStoreReopen(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	src := randArray(rng, 16, 16)
	path := filepath.Join(t.TempDir(), "epoch.wav")
	st, err := CreateStore(StoreOptions{Shape: []int{16, 16}, Form: Standard, Path: path, Durable: true, Versioned: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.TransformChunked(src, 2); err != nil {
		t.Fatal(err)
	}
	delta := randArray(rng, 4, 4)
	if err := st.MergeBlock(CubeBlock(2, 0, 1), Transform(delta, Standard)); err != nil {
		t.Fatal(err)
	}
	want, err := st.ReadTransform()
	if err != nil {
		t.Fatal(err)
	}
	wantEpoch := st.CurrentEpoch()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Versioned() {
		t.Fatal("reopened store lost the epoch layer")
	}
	if got := st2.CurrentEpoch(); got != wantEpoch {
		t.Fatalf("reopened epoch = %d, want %d", got, wantEpoch)
	}
	got, err := st2.ReadTransform()
	if err != nil {
		t.Fatal(err)
	}
	if !equalExact(got, want) {
		t.Fatal("transform changed across close/reopen")
	}
	es, ok := st2.EpochStats()
	if !ok {
		t.Fatal("EpochStats not available on a versioned store")
	}
	if es.Epoch != wantEpoch || es.Pinned != 0 {
		t.Fatalf("epoch stats = %+v", es)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("fsck not clean: %+v", rep)
	}
	if rep.Versioned == nil {
		t.Fatal("fsck of a versioned store reported no superblock")
	}
	if rep.Versioned.Epoch != wantEpoch {
		t.Fatalf("fsck superblock epoch = %d, want %d", rep.Versioned.Epoch, wantEpoch)
	}
}

// intArray fills an array with small integers. Every Haar average and
// half-difference of integers is a dyadic rational that float64 holds
// exactly, so transforms, merges and their inverses round nowhere:
// (x + d) - d is x bit for bit.
func intArray(rng *rand.Rand, shape ...int) *Array {
	a := NewArray(shape...)
	for i := range a.Data() {
		a.Data()[i] = float64(rng.Intn(2001) - 1000)
	}
	return a
}

// TestSnapshotOracleUnderMaintenance is the -race acceptance test for the
// tentpole: concurrent point, range, and full-transform queries during a
// stream of SHIFT-SPLIT merge batches never observe a mid-batch state.
// The writer alternates between two known transforms (merging a delta in
// and back out) over integer data, so both committed states recur exactly
// and the oracle is exact: every pinned snapshot must read a transform
// equal — coefficient for coefficient — to one of the two. The writer
// keeps flipping until the readers have seen each state, so the test
// cannot pass by not looking.
func TestSnapshotOracleUnderMaintenance(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	src := intArray(rng, 8, 8)
	delta := intArray(rng, 4, 4)
	blk := CubeBlock(2, 1, 1)
	dh := Transform(delta, Standard)
	neg := Transform(delta, Standard)
	for i := range neg.Data() {
		neg.Data()[i] = -neg.Data()[i]
	}

	st, err := CreateStore(StoreOptions{Shape: []int{8, 8}, Form: Standard, TileBits: 1, Versioned: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.TransformChunked(src, 2); err != nil {
		t.Fatal(err)
	}
	preHat, err := st.ReadTransform()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.MergeBlock(blk, dh); err != nil {
		t.Fatal(err)
	}
	postHat, err := st.ReadTransform()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.MergeBlock(blk, neg); err != nil {
		t.Fatal(err)
	}
	if back, err := st.ReadTransform(); err != nil || !equalExact(back, preHat) || equalExact(preHat, postHat) {
		t.Fatalf("the two committed states are not exactly reproducible (err %v)", err)
	}

	stop := make(chan struct{})
	var sawPre, sawPost atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				err := st.WithSnapshot(func(snap *Snapshot) error {
					got, err := snap.ReadTransform()
					if err != nil {
						return err
					}
					switch {
					case equalExact(got, preHat):
						sawPre.Add(1)
					case equalExact(got, postHat):
						sawPost.Add(1)
					default:
						return fmt.Errorf("reader %d iter %d (epoch %d): observed a mid-batch transform", g, i, snap.Epoch())
					}
					// A point query through the same snapshot must agree with
					// the full read — same pinned epoch, by construction.
					p := []int{i % 8, (3 * i) % 8}
					_, _, err = snap.Point(p...)
					return err
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}

	deadline := time.Now().Add(30 * time.Second)
	for round := 0; round < 30 || sawPre.Load() == 0 || sawPost.Load() == 0; round++ {
		if time.Now().After(deadline) {
			break
		}
		if err := st.MergeBlock(blk, dh); err != nil {
			t.Fatal(err)
		}
		if err := st.MergeBlock(blk, neg); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if sawPre.Load() == 0 || sawPost.Load() == 0 {
		t.Fatalf("readers saw the pre state %d times and the post state %d times; the oracle needs both", sawPre.Load(), sawPost.Load())
	}

	es, ok := st.EpochStats()
	if !ok {
		t.Fatal("no epoch stats")
	}
	if es.Pinned != 0 {
		t.Fatalf("snapshot leak: %d pins outstanding after readers exited", es.Pinned)
	}
}

// writeGate blocks device writes while engaged, letting reads through — a
// stand-in for a slow medium mid-commit. It slides under the durable
// store's checksum layer via BaseWrap.
type writeGate struct {
	storage.BlockStore
	gating  atomic.Bool
	release chan struct{}
	blocked atomic.Int64
}

func (g *writeGate) WriteBlock(id int, data []float64) error {
	if g.gating.Load() {
		g.blocked.Add(1)
		<-g.release
	}
	return g.BlockStore.WriteBlock(id, data)
}

// TestReadersProgressDuringMaterialize is the regression test for the
// Locked demotion: with a maintenance commit wedged mid-batch (device
// writes blocked, write lock held), N concurrent readers on a versioned
// serving store must still complete point queries against the old epoch.
// Before the epoch layer, the durable read path shared storage.Locked with
// writers and every reader would hang here.
func TestReadersProgressDuringMaterialize(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	src := randArray(rng, 16, 16)
	path := filepath.Join(t.TempDir(), "gated.wav")
	st, err := CreateStore(StoreOptions{Shape: []int{16, 16}, Form: Standard, Path: path, Durable: true, Versioned: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.TransformChunked(src, 2); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	gate := &writeGate{release: make(chan struct{})}
	sv, err := OpenServingOpts(path, ServeOptions{
		CacheBlocks: 64,
		BaseWrap: func(bs storage.BlockStore) storage.BlockStore {
			gate.BlockStore = bs
			return gate
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()

	preEpoch := sv.CurrentEpoch()
	gate.gating.Store(true)
	maintDone := make(chan error, 1)
	go func() {
		// Rewrites every block and flips the epoch; wedges at the first
		// gated device write inside the commit.
		maintDone <- sv.Materialize(src)
	}()

	// Wait until the commit is provably wedged on the device.
	deadline := time.After(10 * time.Second)
	for gate.blocked.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("maintenance never reached the gated device write")
		case <-time.After(time.Millisecond):
		}
	}

	// N readers must make progress against the pinned old epoch while the
	// writer holds the write lock.
	var wg sync.WaitGroup
	readersDone := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				p := []int{(g + i) % 16, (g * i) % 16}
				v, _, err := sv.Point(p...)
				if err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				if d := v - src.At(p...); d > 1e-8 || d < -1e-8 {
					t.Errorf("reader %d: point %v = %g, want %g", g, p, v, src.At(p...))
					return
				}
			}
		}(g)
	}
	go func() { wg.Wait(); close(readersDone) }()
	select {
	case <-readersDone:
	case <-time.After(30 * time.Second):
		t.Fatal("readers starved while maintenance held the write path — Locked is back on the read path")
	}
	if got := sv.CurrentEpoch(); got != preEpoch {
		t.Fatalf("epoch flipped to %d while the commit was wedged", got)
	}

	gate.gating.Store(false)
	close(gate.release)
	if err := <-maintDone; err != nil {
		t.Fatalf("materialize after release: %v", err)
	}
	if got := sv.CurrentEpoch(); got != preEpoch+1 {
		t.Fatalf("epoch after materialize = %d, want %d", got, preEpoch+1)
	}
	v, blocks, err := sv.Point(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d := v - src.At(3, 5); d > 1e-8 || d < -1e-8 {
		t.Fatalf("post-materialize point = %g, want %g", v, src.At(3, 5))
	}
	if blocks != 1 {
		t.Fatalf("materialized point query read %d blocks, want 1", blocks)
	}
}

// TestRollupFromStoreDuringWedgedMerge: RollupFromStore reads a pinned
// snapshot, not the builder's write leg, so with a MergeBlock wedged in its
// commit (device writes blocked, write lock held) it still returns, with the
// pre-merge answer; once the merge lands it answers from the new epoch.
func TestRollupFromStoreDuringWedgedMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	src := randArray(rng, 16, 16)
	path := filepath.Join(t.TempDir(), "gated.wav")
	st, err := CreateStore(StoreOptions{Shape: []int{16, 16}, Form: Standard, Path: path, Durable: true, Versioned: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.TransformChunked(src, 2); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	gate := &writeGate{release: make(chan struct{})}
	sv, err := OpenServingOpts(path, ServeOptions{BaseWrap: func(bs storage.BlockStore) storage.BlockStore {
		gate.BlockStore = bs
		return gate
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	// Deferred after Close so it runs first: a failing test must not leave
	// Close waiting on the wedged commit.
	release := sync.OnceFunc(func() {
		gate.gating.Store(false)
		close(gate.release)
	})
	defer release()

	oracle := make([]*Array, 2)
	for dim := range oracle {
		if oracle[dim], _, err = sv.RollupFromStore(dim); err != nil {
			t.Fatal(err)
		}
	}
	delta := Transform(randArray(rng, 4, 4), Standard)
	gate.gating.Store(true)
	mergeDone := make(chan error, 1)
	go func() { mergeDone <- sv.MergeBlock(CubeBlock(2, 1, 1), delta) }()
	deadline := time.After(10 * time.Second)
	for gate.blocked.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("the merge never reached the gated device write")
		case <-time.After(time.Millisecond):
		}
	}

	rolled := make(chan error, 1)
	go func() {
		for dim, want := range oracle {
			got, _, err := sv.RollupFromStore(dim)
			if err == nil && !got.EqualApprox(want, 0) {
				err = fmt.Errorf("RollupFromStore(%d) during the wedged merge differs from the pre-merge answer by %g", dim, got.MaxAbsDiff(want))
			}
			if err != nil {
				rolled <- err
				return
			}
		}
		rolled <- nil
	}()
	select {
	case err := <-rolled:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("RollupFromStore waited behind the wedged merge")
	}

	release()
	if err := <-mergeDone; err != nil {
		t.Fatalf("merge after release: %v", err)
	}
	got, _, err := sv.RollupFromStore(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.EqualApprox(oracle[0], 1e-9) {
		t.Fatal("RollupFromStore after the merge still answers from the pre-merge epoch")
	}
}

// TestVersionedCacheNoInvalidationStorm: a maintenance flip must not evict
// cache entries for blocks the batch did not touch — the cache sits below
// the epoch layer on physical ids, so only reclaimed-and-reused blocks are
// ever dropped.
func TestVersionedCacheNoInvalidationStorm(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	src := randArray(rng, 16, 16)
	path := filepath.Join(t.TempDir(), "storm.wav")
	st, err := CreateStore(StoreOptions{Shape: []int{16, 16}, Form: Standard, Path: path, Durable: true, Versioned: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.TransformChunked(src, 2); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	sv, err := OpenServing(path, 1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()

	// Warm every block, then confirm the whole read set is resident.
	if _, err := sv.ReadTransform(); err != nil {
		t.Fatal(err)
	}
	warm, _ := sv.CacheStats()
	if _, err := sv.ReadTransform(); err != nil {
		t.Fatal(err)
	}
	before, _ := sv.CacheStats()
	if before.Loads != warm.Loads {
		t.Fatalf("cache did not stabilize: %d extra loads on a warm re-read", before.Loads-warm.Loads)
	}

	// One merge batch: remaps a subset of blocks, flips the epoch. The old
	// epoch has no pins, but the other superblock slot describes it, so its
	// exclusive blocks are held until the next flip — the blocks the batch
	// remapped, and the one table page it rewrote (the whole table is one
	// page here).
	if sv.NumBlocks() > 2*sv.BlockSize() {
		t.Fatalf("%d blocks need more than one table page", sv.NumBlocks())
	}
	delta := randArray(rng, 4, 4)
	if err := sv.MergeBlock(CubeBlock(2, 3, 3), Transform(delta, Standard)); err != nil {
		t.Fatal(err)
	}
	es, ok := sv.EpochStats()
	if !ok {
		t.Fatal("no epoch stats on a versioned serving store")
	}
	remapped := int64(es.Reclaimable) - 1
	if remapped == 0 || remapped >= int64(sv.NumBlocks()) {
		t.Fatalf("merge remapped %d of %d blocks; test needs a strict subset", remapped, sv.NumBlocks())
	}

	// Re-reading everything must reload only the remapped blocks: entries
	// for untouched blocks keep their physical ids across the flip, so the
	// flip itself invalidates nothing.
	if _, err := sv.ReadTransform(); err != nil {
		t.Fatal(err)
	}
	after, _ := sv.CacheStats()
	if loads := after.Loads - before.Loads; loads != remapped {
		t.Fatalf("flip caused %d device loads, want exactly the %d remapped blocks (invalidation storm)", loads, remapped)
	}
	if after.Evictions != before.Evictions {
		t.Fatalf("flip caused %d evictions", after.Evictions-before.Evictions)
	}
}

// TestWarmCacheSurvivesReissuedBlocks is the regression test for physical
// ids re-issued at the high-water mark: the mark comes down past freed
// top-of-file blocks, the next epoch grows it again over the same ids, and
// a serve cache still holding the previous tenant's bytes would answer
// from them. Flips and queries interleave on a fully warm cache with no
// settling epoch, and every answer is checked against the dense array.
func TestWarmCacheSurvivesReissuedBlocks(t *testing.T) {
	for _, form := range []Form{Standard, NonStandard} {
		t.Run(form.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			const edge, level = 64, 3
			dense := intArray(rng, edge, edge)
			path := filepath.Join(t.TempDir(), "reissue.wav")
			st, err := CreateStore(StoreOptions{Shape: []int{edge, edge}, Form: form, TileBits: 2, Path: path, Durable: true, Versioned: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.TransformChunked(dense, 3); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			sv, err := OpenServing(path, 4096, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer sv.Close()
			if _, err := sv.ReadTransform(); err != nil {
				t.Fatal(err)
			}

			const side = 1 << level
			for flip := 0; flip < 300; flip++ {
				pos := []int{rng.Intn(edge / side), rng.Intn(edge / side)}
				delta := intArray(rng, side, side)
				if err := sv.MergeBlock(CubeBlock(level, pos...), Transform(delta, form)); err != nil {
					t.Fatal(err)
				}
				for x := 0; x < side; x++ {
					for y := 0; y < side; y++ {
						at := []int{pos[0]*side + x, pos[1]*side + y}
						dense.Set(dense.At(at...)+delta.At(x, y), at...)
					}
				}
				for q := 0; q < 4; q++ {
					p := []int{rng.Intn(edge), rng.Intn(edge)}
					got, _, err := sv.Point(p...)
					if err != nil {
						t.Fatal(err)
					}
					if want := dense.At(p...); got != want {
						t.Fatalf("flip %d: point %v = %g, want %g", flip, p, got, want)
					}
					ext := []int{1 + rng.Intn(edge-p[0]), 1 + rng.Intn(edge-p[1])}
					got, _, err = sv.RangeSum(p, ext)
					if err != nil {
						t.Fatal(err)
					}
					if want := dense.SumRange(p, ext); got != want {
						t.Fatalf("flip %d: range %v+%v = %g, want %g", flip, p, ext, got, want)
					}
				}
			}
		})
	}
}
