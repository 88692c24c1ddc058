package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

// mirror is one of the two identical store stacks the property test drives:
// top is the store under test and counting its I/O observer (nil when the
// shuffled stack happened to omit Counting).
type mirror struct {
	top      BlockStore
	counting *Counting
}

func (m *mirror) close(t *testing.T) {
	t.Helper()
	if err := m.top.Close(); err != nil {
		t.Fatalf("close stack: %v", err)
	}
}

// buildStack composes a random storage stack from a seeded RNG. Called twice
// with RNGs in the same state it yields two structurally identical stacks,
// which is what the batched-vs-looped equivalence test needs.
func buildStack(t *testing.T, rng *rand.Rand, dir string, bs int) *mirror {
	t.Helper()
	m := &mirror{}
	var base BlockStore
	switch rng.Intn(6) {
	case 0:
		base = NewMemStore(bs)
	case 1:
		fs, err := NewFileStore(filepath.Join(dir, "base.dat"), bs)
		if err != nil {
			t.Fatal(err)
		}
		base = fs
	case 2:
		d, err := NewDurable(NewMemStore(bs+ChecksumOverhead), NewMemStore(bs+JournalOverhead))
		if err != nil {
			t.Fatal(err)
		}
		base = d
	case 3:
		c, err := NewChecksummed(NewMemStore(bs + ChecksumOverhead))
		if err != nil {
			t.Fatal(err)
		}
		base = c
	case 4:
		ms, err := NewMappedStore(filepath.Join(dir, "mapped.dat"), bs)
		if err != nil {
			t.Fatal(err)
		}
		base = ms
	case 5:
		// Checksummed over mapped frames: the zero-copy view verify path.
		ms, err := NewMappedStore(filepath.Join(dir, "mapped.dat"), bs+ChecksumOverhead)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewChecksummed(ms)
		if err != nil {
			t.Fatal(err)
		}
		base = c
	}
	// Shuffle a random subset of the order-insensitive wrappers on top.
	wrappers := rng.Perm(5)
	for _, w := range wrappers {
		if rng.Intn(2) == 0 {
			continue
		}
		switch w {
		case 0:
			cnt := NewCounting(base)
			if m.counting == nil {
				m.counting = cnt
			}
			base = cnt
		case 1:
			base = NewBufferPool(base, 1+rng.Intn(6))
		case 2:
			base = NewLocked(base)
		case 3:
			base = NewFaulty(base) // disarmed: pure pass-through with counters
		}
	}
	// Always observe I/O somewhere so stats can be compared.
	if m.counting == nil {
		cnt := NewCounting(base)
		m.counting = cnt
		base = cnt
	}
	m.top = base
	return m
}

// TestBatchEquivalenceRandomStacks is the stack-permutation property test:
// for many seeds it composes two identical randomly shuffled storage stacks
// (Checksummed/Durable/FileStore base under shuffled Counting, BufferPool,
// Locked, Faulty layers), drives the same randomized workload through
// both — one using ReadBlocks/WriteBlocks, the other the per-block loop —
// and asserts the delivered contents, the Counting totals, and the final
// store states are identical.
func TestBatchEquivalenceRandomStacks(t *testing.T) {
	const bs = 7
	const numBlocks = 24
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rngA := rand.New(rand.NewSource(seed))
			rngB := rand.New(rand.NewSource(seed))
			a := buildStack(t, rngA, t.TempDir(), bs)
			b := buildStack(t, rngB, t.TempDir(), bs)
			defer a.close(t)
			defer b.close(t)

			ops := rand.New(rand.NewSource(1000 + seed))
			for op := 0; op < 60; op++ {
				n := 1 + ops.Intn(8)
				ids := make([]int, n)
				if ops.Intn(2) == 0 {
					// Consecutive run (the coalescing fast path).
					start := ops.Intn(numBlocks - n)
					for i := range ids {
						ids[i] = start + i
					}
				} else {
					for i := range ids {
						ids[i] = ops.Intn(numBlocks) // duplicates welcome
					}
				}
				switch ops.Intn(4) {
				case 0, 1: // batch write vs looped write
					data := make([][]float64, n)
					for i := range data {
						data[i] = make([]float64, bs)
						for k := range data[i] {
							data[i][k] = float64(op*1000 + ids[i]*10 + k)
						}
					}
					errA := WriteBlocksOf(a.top, ids, data)
					var errB error
					for i := 0; i < n && errB == nil; i++ {
						errB = b.top.WriteBlock(ids[i], data[i])
					}
					if (errA == nil) != (errB == nil) {
						t.Fatalf("op %d: write err mismatch: batched %v, looped %v", op, errA, errB)
					}
				case 2: // batch read vs looped read
					bufsA := SliceFrames(make([]float64, n*bs), n, bs)
					bufsB := SliceFrames(make([]float64, n*bs), n, bs)
					errA := ReadBlocksOf(a.top, ids, bufsA)
					var errB error
					for i := 0; i < n && errB == nil; i++ {
						errB = b.top.ReadBlock(ids[i], bufsB[i])
					}
					if (errA == nil) != (errB == nil) {
						t.Fatalf("op %d: read err mismatch: batched %v, looped %v", op, errA, errB)
					}
					if errA == nil {
						for i := range bufsA {
							for k := range bufsA[i] {
								if bufsA[i][k] != bufsB[i][k] {
									t.Fatalf("op %d: block %d slot %d: batched %v, looped %v",
										op, ids[i], k, bufsA[i][k], bufsB[i][k])
								}
							}
						}
					}
				case 3: // durability points advance both stacks identically
					if ops.Intn(2) == 0 {
						if err := SyncIfAble(a.top); err != nil {
							t.Fatal(err)
						}
						if err := SyncIfAble(b.top); err != nil {
							t.Fatal(err)
						}
					} else {
						if err := CommitIfAble(a.top); err != nil {
							t.Fatal(err)
						}
						if err := CommitIfAble(b.top); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			if sa, sb := a.counting.Stats(), b.counting.Stats(); sa != sb {
				t.Fatalf("counting stats diverged: batched %+v, looped %+v", sa, sb)
			}
			// Final logical contents must agree block for block.
			bufA := make([]float64, bs)
			bufB := make([]float64, bs)
			for id := 0; id < numBlocks; id++ {
				if err := a.top.ReadBlock(id, bufA); err != nil {
					t.Fatal(err)
				}
				if err := b.top.ReadBlock(id, bufB); err != nil {
					t.Fatal(err)
				}
				for k := range bufA {
					if bufA[k] != bufB[k] {
						t.Fatalf("final block %d slot %d: batched %v, looped %v", id, k, bufA[k], bufB[k])
					}
				}
			}
		})
	}
}

// TestBatchFaultEquivalence arms real fault triggers and checks the batched
// path surfaces the same first error, for the same block, after the same
// number of trigger evaluations as the per-block loop.
func TestBatchFaultEquivalence(t *testing.T) {
	const bs = 4
	for _, tc := range []struct {
		name string
		arm  func(f *Faulty)
	}{
		{"OneShotRead", func(f *Faulty) { f.FailReadAfter(5) }},
		{"OneShotWrite", func(f *Faulty) { f.FailWriteAfter(3) }},
		{"EveryNthRead", func(f *Faulty) { f.FailEveryNthRead(4) }},
		{"EveryNthWrite", func(f *Faulty) { f.FailEveryNthWrite(4) }},
		{"Probabilistic", func(f *Faulty) { f.FailReadsWithProbability(0.3, 42) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(batched bool) (errs []string, stats Stats) {
				cnt := NewCounting(NewMemStore(bs))
				f := NewFaulty(cnt)
				tc.arm(f)
				data := make([][]float64, 6)
				bufs := make([][]float64, 6)
				ids := make([]int, 6)
				for i := range ids {
					ids[i] = i
					data[i] = []float64{float64(i), 0, 0, 0}
					bufs[i] = make([]float64, bs)
				}
				for round := 0; round < 4; round++ {
					var errW, errR error
					if batched {
						errW = WriteBlocksOf(f, ids, data)
						errR = ReadBlocksOf(f, ids, bufs)
					} else {
						for i := range ids {
							if errW = f.WriteBlock(ids[i], data[i]); errW != nil {
								break
							}
						}
						for i := range ids {
							if errR = f.ReadBlock(ids[i], bufs[i]); errR != nil {
								break
							}
						}
					}
					errs = append(errs, fmt.Sprint(errW), fmt.Sprint(errR))
				}
				return errs, cnt.Stats()
			}
			loopErrs, _ := run(false)
			batchErrs, _ := run(true)
			for i := range loopErrs {
				if loopErrs[i] != batchErrs[i] {
					t.Fatalf("error %d: looped %q, batched %q", i, loopErrs[i], batchErrs[i])
				}
			}
		})
	}
}

// TestCrashCampaignBatchedCommit repeats the durable crash campaign with the
// maintenance batch staged through WriteBlocks — the vectored staging path —
// so the journal's batched record group is the thing being torn. Every
// recovery must land on exactly the pre- or post-batch state.
func TestCrashCampaignBatchedCommit(t *testing.T) {
	const blockSize = 6
	seed := campaignSeed(t)
	batchA, batchB := campaignBatches(blockSize)
	pre, post := expectedStates(batchA, batchB)

	applyBatched := func(d *Durable, batch map[int][]float64) error {
		ids := make([]int, 0, len(batch))
		for id := range batch {
			ids = append(ids, id)
		}
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				if ids[j] < ids[i] {
					ids[i], ids[j] = ids[j], ids[i]
				}
			}
		}
		data := make([][]float64, len(ids))
		for i, id := range ids {
			data[i] = batch[id]
		}
		if err := d.WriteBlocks(ids, data); err != nil {
			return err
		}
		return d.Commit()
	}

	dry := NewCrashPlan(seed)
	dir := t.TempDir()
	d, err := CreateDurable(filepath.Join(dir, "dry.dat"), blockSize, dry)
	if err != nil {
		t.Fatal(err)
	}
	if err := applyBatched(d, batchA); err != nil {
		t.Fatal(err)
	}
	opsA := dry.Ops()
	if err := applyBatched(d, batchB); err != nil {
		t.Fatal(err)
	}
	opsB := dry.Ops() - opsA
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	preSeen, postSeen := 0, 0
	for w := int64(1); w <= opsB; w++ {
		path := filepath.Join(dir, fmt.Sprintf("t%d.dat", w))
		plan := NewCrashPlan(seed + w)
		d, err := CreateDurable(path, blockSize, plan)
		if err != nil {
			t.Fatal(err)
		}
		if err := applyBatched(d, batchA); err != nil {
			t.Fatalf("trial %d: batch A: %v", w, err)
		}
		plan.ArmAt(plan.Ops() + w)
		err = applyBatched(d, batchB)
		if w < opsB && !errors.Is(err, ErrCrashed) {
			t.Fatalf("trial %d: expected crash, got %v", w, err)
		}
		_ = d.Close()

		d2, err := OpenDurable(path, blockSize, nil)
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
		if err := d2.Close(); err != nil {
			t.Fatalf("trial %d: close recovered store: %v", w, err)
		}
	}
	t.Logf("batched campaign: %d trials, %d pre, %d post", opsB, preSeen, postSeen)
	if preSeen == 0 || postSeen == 0 {
		t.Fatalf("campaign never exercised both outcomes (pre=%d post=%d)", preSeen, postSeen)
	}
}

// TestSliceFrames covers the shared slab cutter.
func TestSliceFrames(t *testing.T) {
	frames := SliceFrames(make([]float64, 12), 3, 4)
	if len(frames) != 3 {
		t.Fatalf("got %d frames", len(frames))
	}
	for i, f := range frames {
		if len(f) != 4 || cap(f) != 4 {
			t.Fatalf("frame %d: len %d cap %d", i, len(f), cap(f))
		}
	}
	frames[0][3] = 7
	frames[1][0] = 9 // must not alias frame 0 despite the shared slab
	if frames[0][3] != 7 {
		t.Fatal("frames alias each other")
	}
}

// TestZeroFill covers the shared zero helper.
func TestZeroFill(t *testing.T) {
	buf := []float64{1, 2, 3}
	ZeroFill(buf)
	for i, v := range buf {
		if v != 0 {
			t.Fatalf("slot %d: %v", i, v)
		}
	}
}
