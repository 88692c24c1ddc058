package shiftsplit

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
)

// failStack builds a store of one stack at the campaign's pre-call state
// with a Faulty under its data device, and reopens it once the fault is
// disarmed ("" path: in memory, nothing to reopen).
type failStack struct {
	name  string
	build func(t *testing.T, dir string, form Form, a *Array, wrap func(storage.BlockStore) storage.BlockStore) (*Store, string)
}

func failStacks() []failStack {
	create := func(durable, versioned bool) func(*testing.T, string, Form, *Array, func(storage.BlockStore) storage.BlockStore) (*Store, string) {
		return func(t *testing.T, dir string, form Form, a *Array, wrap func(storage.BlockStore) storage.BlockStore) (*Store, string) {
			t.Helper()
			path := ""
			if durable {
				path = filepath.Join(dir, "s.wav")
			}
			st, err := CreateStore(StoreOptions{Shape: a.Shape(), Form: form, Path: path, Durable: durable, Versioned: versioned, BaseWrap: wrap})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Materialize(a); err != nil {
				t.Fatal(err)
			}
			return st, path
		}
	}
	serving := func(versioned bool, cacheBlocks int) func(*testing.T, string, Form, *Array, func(storage.BlockStore) storage.BlockStore) (*Store, string) {
		return func(t *testing.T, dir string, form Form, a *Array, wrap func(storage.BlockStore) storage.BlockStore) (*Store, string) {
			t.Helper()
			st, path := create(true, versioned)(t, dir, form, a, nil)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st, err := OpenServingOpts(path, ServeOptions{CacheBlocks: cacheBlocks, BaseWrap: wrap})
			if err != nil {
				t.Fatal(err)
			}
			return st, path
		}
	}
	return []failStack{
		{"versioned", create(false, true)},
		// Durable alone: CreateStore makes it versioned.
		{"durable", create(true, false)},
		{"durable+versioned", create(true, true)},
		{"serving durable+versioned", serving(true, 4)},
		// A serving cache that holds every block: the building epoch's
		// blocks read back during the call land in it, and a rollback must
		// not leave them there.
		{"serving durable", serving(false, 64)},
	}
}

// TestFailedWriteCampaign fails every public write at every device read
// and at every device write, and requires the store to hold exactly the
// transform from before the call once the fault is disarmed, both on the
// same handle and once a file store is closed and reopened, with a clean
// fsck. A fault that fails the commit itself may leave the flip on the
// medium, and the store then holds exactly the pre- or the post-call
// transform: Close commits the epoch it left building; on the in-memory
// stack the flip was not published, so the store reads pre-call until
// Flush commits it.
func TestFailedWriteCampaign(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	a, b := randArray(rng, 16, 16), randArray(rng, 16, 16)
	blk := CubeBlock(2, 1, 2)
	delta := randArray(rng, blk.Shape()...)
	ops := []struct {
		name string
		run  func(*Store) error
	}{
		{"Materialize", func(st *Store) error { return st.Materialize(b) }},
		{"TransformChunked", func(st *Store) error { return st.TransformChunked(b, 2) }},
		{"MergeBlock", func(st *Store) error { return st.MergeBlock(blk, Transform(delta, st.Form())) }},
		{"ClearBlock", func(st *Store) error { return st.ClearBlock(blk) }},
		{"Scale", func(st *Store) error { return st.Scale(2) }},
	}
	for _, sk := range failStacks() {
		for _, form := range []Form{Standard, NonStandard} {
			for _, op := range ops {
				t.Run(fmt.Sprintf("%s/%v/%s", sk.name, form, op.name), func(t *testing.T) {
					disarm := func(f *storage.Faulty) {
						f.FailReadAfter(0)
						f.FailWriteAfter(0)
					}
					// settle disarms f, reopens a file store and returns its
					// transform; the caller closes the store.
					settle := func(st *Store, path string, f *storage.Faulty) (*Store, *Array) {
						t.Helper()
						disarm(f)
						if path != "" {
							_ = st.Close() // a failed commit's batch is sealed here, or reported
							var err error
							if st, err = OpenStore(path); err != nil {
								t.Fatal(err)
							}
						}
						got, err := st.ReadTransform()
						if err != nil {
							t.Fatal(err)
						}
						return st, got
					}
					// build makes the pre-call store over a Faulty.
					build := func() (st *Store, path string, f *storage.Faulty) {
						st, path = sk.build(t, t.TempDir(), form, a, func(bs storage.BlockStore) storage.BlockStore {
							f = storage.NewFaulty(bs)
							return f
						})
						return st, path, f
					}
					// trial builds the pre-call store, arms its fault and runs
					// the call.
					trial := func(arm func(*storage.Faulty)) (*Store, string, *storage.Faulty, error) {
						st, path, f := build()
						arm(f)
						return st, path, f, op.run(st)
					}
					fsck := func(path string) {
						t.Helper()
						if path == "" {
							return
						}
						rep, err := Fsck(path)
						if err != nil {
							t.Fatal(err)
						}
						if !rep.Clean() {
							t.Fatalf("fsck not clean: %+v", rep)
						}
					}

					// The reference states, from unfaulted runs of the same stack.
					st, pre := settle(build())
					st.Close()
					st, path, f, err := trial(func(*storage.Faulty) {})
					if err != nil {
						t.Fatal(err)
					}
					st, post := settle(st, path, f)
					st.Close()
					if equalExact(pre, post) {
						t.Fatal("the call changes nothing: the campaign is vacuous")
					}

					for _, trigger := range []string{"read", "write"} {
						trials, preSeen, postSeen := 0, 0, 0
						for k := int64(1); ; k++ {
							st, path, f, err := trial(func(f *storage.Faulty) {
								if trigger == "read" {
									f.FailReadAfter(k)
								} else {
									f.FailWriteAfter(k)
								}
							})
							injected := f.InjectedFaults() > 0
							if err == nil {
								st, got := settle(st, path, f)
								st.Close()
								if !equalExact(got, post) {
									t.Fatalf("%s trigger %d: the call succeeded but the store is not the post-call transform", trigger, k)
								}
								if injected {
									t.Fatalf("%s trigger %d: an injected fault was absorbed", trigger, k)
								}
								break
							}
							if !errors.Is(err, storage.ErrInjected) {
								t.Fatalf("%s trigger %d: err = %v, want the injected fault", trigger, k, err)
							}
							trials++
							// The handle that ran the call reads the pre-call
							// transform at once, or, when its commit failed and
							// left the batch staged, the post-call one.
							disarm(f)
							got, err := st.ReadTransform()
							if err != nil {
								t.Fatal(err)
							}
							if !equalExact(got, pre) && !(trigger == "write" && equalExact(got, post)) {
								t.Fatalf("%s trigger %d: the failing handle does not read the pre-call transform", trigger, k)
							}
							st, got = settle(st, path, f)
							// A read fault fails the call before its commit,
							// and so does a write fault on the in-memory stack
							// until Flush seals what a failed flip left staged.
							switch {
							case equalExact(got, pre):
								preSeen++
							case equalExact(got, post) && trigger == "write" && path != "":
								postSeen++
							default:
								t.Fatalf("%s trigger %d (%v): the store is not the pre-call transform", trigger, k, err)
							}
							if path == "" && trigger == "write" {
								if err := st.Flush(); err != nil {
									t.Fatalf("%s trigger %d: Flush: %v", trigger, k, err)
								}
								if got, err = st.ReadTransform(); err != nil {
									t.Fatal(err)
								}
								if !equalExact(got, pre) && !equalExact(got, post) {
									t.Fatalf("%s trigger %d: after Flush the store is neither the pre- nor the post-call transform", trigger, k)
								}
							}
							if err := st.Close(); err != nil {
								t.Fatal(err)
							}
							fsck(path)
						}
						t.Logf("%s triggers: %d trials, %d pre-call, %d post-call", trigger, trials, preSeen, postSeen)
					}
				})
			}
		}
	}
}

// TestRolledBackWriteLeavesNoTrace stages a frame, reads it back through
// the handle's read layers, and fails the write. On every stack of the
// campaign the same handle, and a file store reopened, must then read the
// pre-call transform: no layer above the rollback may keep serving the
// frame the rollback discarded.
func TestRolledBackWriteLeavesNoTrace(t *testing.T) {
	a := randArray(rand.New(rand.NewSource(65)), 16, 16)
	boom := errors.New("boom")
	stage := func(ts *tile.Store) {
		junk := make([]float64, ts.Tiling().BlockSize())
		for i := range junk {
			junk[i] = float64(i + 1)
		}
		if err := ts.WriteTiles([]int{0}, [][]float64{junk}); err != nil {
			t.Fatal(err)
		}
		if _, err := ts.ReadTiles([]int{0}); err != nil {
			t.Fatal(err)
		}
	}
	fails := map[string]func(*tile.Store) error{
		"error": func(ts *tile.Store) error { stage(ts); return boom },
		"panic": func(ts *tile.Store) error { stage(ts); panic(boom) },
	}
	for _, sk := range failStacks() {
		for name, fn := range fails {
			t.Run(sk.name+"/"+name, func(t *testing.T) {
				st, path := sk.build(t, t.TempDir(), Standard, a, func(bs storage.BlockStore) storage.BlockStore { return bs })
				pre, err := st.ReadTransform()
				if err != nil {
					t.Fatal(err)
				}
				func() {
					defer func() { _ = recover() }()
					if err := st.write(false, fn); !errors.Is(err, boom) {
						t.Fatalf("write err = %v, want %v", err, boom)
					}
				}()
				check := func(st *Store, when string) {
					t.Helper()
					got, err := st.ReadTransform()
					if err != nil {
						t.Fatal(err)
					}
					if !equalExact(got, pre) {
						t.Fatalf("%s: the store is not the pre-call transform", when)
					}
				}
				check(st, "same handle")
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				if path == "" {
					return
				}
				if st, err = OpenStore(path); err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				check(st, "reopened")
			})
		}
	}
}

// TestFailedCommitStaysStaged fails a merge's commit at its superblock
// slot, after the epoch's blocks and table page are written and synced,
// then fails the next merge before its commit, then runs a third. The
// failed commit's epoch must survive the second call's rollback: the
// second call commits it again first, and an epoch dropped from memory
// would free blocks a slot on the medium may already map. The store
// reopens to the first and third merges, exactly.
func TestFailedCommitStaysStaged(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	a := randArray(rng, 16, 16)
	blocks := []Block{CubeBlock(2, 0, 0), CubeBlock(2, 3, 3), CubeBlock(2, 1, 2)}
	deltas := make([]*Array, len(blocks))
	for i, b := range blocks {
		deltas[i] = Transform(randArray(rng, b.Shape()...), Standard)
	}
	ref, err := CreateStore(StoreOptions{Shape: []int{16, 16}})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for _, step := range []func() error{
		func() error { return ref.Materialize(a) },
		func() error { return ref.MergeBlock(blocks[0], deltas[0]) },
		func() error { return ref.MergeBlock(blocks[2], deltas[2]) },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ref.ReadTransform()
	if err != nil {
		t.Fatal(err)
	}

	var f *storage.Faulty
	create := func(path string) *Store {
		st, err := CreateStore(StoreOptions{Shape: []int{16, 16}, Path: path, Durable: true, BaseWrap: func(bs storage.BlockStore) storage.BlockStore {
			f = storage.NewFaulty(bs)
			return f
		}})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Materialize(a); err != nil {
			t.Fatal(err)
		}
		return st
	}
	// The merge's last write is its one-block superblock slot.
	dry := create(filepath.Join(t.TempDir(), "dry.wav"))
	before := dry.Stats().Writes
	if err := dry.MergeBlock(blocks[0], deltas[0]); err != nil {
		t.Fatal(err)
	}
	writes := dry.Stats().Writes - before
	if err := dry.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s.wav")
	st := create(path)
	f.FailWriteAfter(writes)
	if err := st.MergeBlock(blocks[0], deltas[0]); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("first merge: err = %v, want the injected fault in its commit", err)
	}
	f.FailWriteAfter(0)
	f.FailReadAfter(1)
	if err := st.MergeBlock(blocks[1], deltas[1]); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("second merge: err = %v, want the injected fault", err)
	}
	f.FailReadAfter(0)
	if err := st.MergeBlock(blocks[2], deltas[2]); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = OpenStore(path); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got, err := st.ReadTransform()
	if err != nil {
		t.Fatal(err)
	}
	if !equalExact(got, want) {
		t.Fatal("the store is not the transform after the first and third merges")
	}
}

// TestConcurrentMergeBlocks merges integer-valued blocks into one versioned
// store from two goroutines. The writes serialize, so no merge is lost, and
// integer data keeps every sum exact whatever order they land in.
func TestConcurrentMergeBlocks(t *testing.T) {
	for _, form := range []Form{Standard, NonStandard} {
		st, err := CreateStore(StoreOptions{Shape: []int{16, 16}, Form: form, Versioned: true})
		if err != nil {
			t.Fatal(err)
		}
		want := NewArray(16, 16)
		var wg sync.WaitGroup
		errs := make(chan error, 2)
		for g := 0; g < 2; g++ {
			rng := rand.New(rand.NewSource(int64(60 + g)))
			var merges []Block
			var data []*Array
			for i := 0; i < 40; i++ {
				b := CubeBlock(2, rng.Intn(4), rng.Intn(4))
				d := NewArray(b.Shape()...)
				for j := range d.Data() {
					d.Data()[j] = float64(rng.Intn(9) - 4)
				}
				want.SubAdd(d, []int{b.Pos[0] * 4, b.Pos[1] * 4})
				merges, data = append(merges, b), append(data, d)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, b := range merges {
					if err := st.MergeBlock(b, Transform(data[i], form)); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		hat, err := st.ReadTransform()
		if err != nil {
			t.Fatal(err)
		}
		if !equalExact(hat, Transform(want, form)) {
			t.Errorf("%v: the transform is not the exact sum of the merges", form)
		}
		st.Close()
	}
}

// TestScaleCommitsItself scales a versioned store and reads the result
// back at once: the write flipped its own epoch.
func TestScaleCommitsItself(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	a := randArray(rng, 8, 8)
	st, err := CreateStore(StoreOptions{Shape: []int{8, 8}, Form: Standard, Versioned: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Materialize(a); err != nil {
		t.Fatal(err)
	}
	before, _, err := st.Points([][]int{{0, 0}, {3, 5}, {7, 7}})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Scale(2); err != nil {
		t.Fatal(err)
	}
	// Doubling every coefficient doubles each sum that reconstructs a
	// point, exactly.
	for i, p := range [][]int{{0, 0}, {3, 5}, {7, 7}} {
		v, _, err := st.Point(p...)
		if err != nil {
			t.Fatal(err)
		}
		if v != 2*before[i] {
			t.Fatalf("Point%v = %g after Scale(2), want %g", p, v, 2*before[i])
		}
	}
}

// TestScaleRefusedWhileQuarantined scales a durable serving store with
// a quarantined block: Scale reads and rewrites every block, so it is
// refused like the other incremental writes and changes no block.
func TestScaleRefusedWhileQuarantined(t *testing.T) {
	path, _ := makeDurableStore(t)
	st, err := OpenServing(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	bad := writtenBlock(t, path)
	flipFrameByte(t, path, bad, st.BlockSize())
	if n, err := st.ScrubOnce(context.Background()); err != nil || n != 1 {
		t.Fatalf("scrub quarantined %d blocks (%v), want 1", n, err)
	}
	before := st.Stats()
	if err := st.Scale(2); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Scale err = %v, want ErrQuarantined", err)
	}
	if d := st.Stats(); d.Reads != before.Reads || d.Writes != before.Writes || d.Commits != before.Commits {
		t.Fatalf("refused Scale did I/O: %+v, was %+v", d, before)
	}
	if recs := st.Quarantined(); len(recs) != 1 || recs[0].Block != bad {
		t.Fatalf("quarantine after the refused Scale = %v", recs)
	}
}

// TestTransformChunkedRejectsNegativeChunkBits passes a negative chunk
// exponent to both forms' chunked engines: an error, not a panic.
func TestTransformChunkedRejectsNegativeChunkBits(t *testing.T) {
	src := randArray(rand.New(rand.NewSource(63)), 16, 16)
	for _, form := range []Form{Standard, NonStandard} {
		st, err := CreateStore(StoreOptions{Shape: []int{16, 16}, Form: form})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.TransformChunked(src, -1); err == nil {
			t.Errorf("%v: chunk bits -1 accepted", form)
		}
		st.Close()
	}
}
