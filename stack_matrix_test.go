package shiftsplit

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// The stack matrix pins what every storage stack the entry points can
// assemble does — I/O counts, cache and epoch counters, health, answers and
// the bytes left on the medium — to literals recorded before the three
// hand-written assemblies were folded into one. A refactor of the assembly
// must leave every literal untouched; a deliberate behaviour change has to
// edit the one it moves.

// matrixHandle is one way of obtaining a *Store.
type matrixHandle struct {
	name string
	// open returns the handle the script runs through. File-backed kinds
	// other than "create" reopen a store CreateStore left empty.
	open func(o StoreOptions) (*Store, error)
}

func openViaCreate(o StoreOptions) (*Store, error) { return CreateStore(o) }

func openViaOpenStore(o StoreOptions) (*Store, error) { return OpenStore(o.Path) }

func openViaServing(so ServeOptions) func(StoreOptions) (*Store, error) {
	return func(o StoreOptions) (*Store, error) { return OpenServingOpts(o.Path, so) }
}

// matrixScript is the seeded operation sequence, drawn once so every case
// sees the same operations.
type matrixScript struct {
	src    *Array
	blocks []Block
	deltas []*Array
	points [][]int
	starts [][]int
	exts   [][]int
}

const matrixEdge = 32

func newMatrixScript() *matrixScript {
	rng := rand.New(rand.NewSource(21))
	sc := &matrixScript{src: randArray(rng, matrixEdge, matrixEdge)}
	for i := 0; i < 8; i++ {
		sc.blocks = append(sc.blocks, CubeBlock(2, rng.Intn(8), rng.Intn(8)))
		sc.deltas = append(sc.deltas, randArray(rng, 4, 4))
	}
	for i := 0; i < 64; i++ {
		sc.points = append(sc.points, []int{rng.Intn(matrixEdge), rng.Intn(matrixEdge)})
		s0, s1 := rng.Intn(matrixEdge), rng.Intn(matrixEdge)
		sc.starts = append(sc.starts, []int{s0, s1})
		sc.exts = append(sc.exts, []int{1 + rng.Intn(matrixEdge-s0), 1 + rng.Intn(matrixEdge-s1)})
	}
	return sc
}

// maintain runs the write half of the script.
func (sc *matrixScript) maintain(st *Store) error {
	if err := st.TransformChunked(sc.src, 3); err != nil {
		return fmt.Errorf("transform: %w", err)
	}
	for i, b := range sc.blocks {
		if err := st.MergeBlock(b, Transform(sc.deltas[i], st.Form())); err != nil {
			return fmt.Errorf("merge %d: %w", i, err)
		}
	}
	return nil
}

// observe runs the 64 points and 64 range sums and renders everything the
// handle reports, each struct's fields in declaration order (cache and epoch
// only where the handle has that layer), plus a digest of the answers and
// their block counts.
func (sc *matrixScript) observe(st *Store) (string, error) {
	h := sha256.New()
	put := func(v float64, io int) {
		var b [16]byte
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(v))
		binary.LittleEndian.PutUint64(b[8:], uint64(io))
		h.Write(b[:])
	}
	for _, p := range sc.points {
		v, io, err := st.Point(p...)
		if err != nil {
			return "", fmt.Errorf("point %v: %w", p, err)
		}
		put(v, io)
	}
	for i := range sc.starts {
		v, io, err := st.RangeSum(sc.starts[i], sc.exts[i])
		if err != nil {
			return "", fmt.Errorf("range sum %v+%v: %w", sc.starts[i], sc.exts[i], err)
		}
		put(v, io)
	}
	io := st.Stats()
	out := fmt.Sprintf("io=%d/%d/%d/%d/%d", io.Reads, io.Writes, io.Syncs, io.Commits, io.MappedReads)
	if cs, ok := st.CacheStats(); ok {
		out += fmt.Sprintf(" cache=%d/%d/%d/%d/%d/%d/%.6f", cs.Hits, cs.Misses, cs.Loads, cs.Evictions, cs.Inflight, cs.Resident, cs.HitRate)
	}
	if es, ok := st.EpochStats(); ok {
		out += fmt.Sprintf(" epoch=%d/%d/%d/%d/%d/%d", es.Epoch, es.Pinned, es.OldestPinned, es.FreeBlocks, es.Reclaimable, es.PhysBlocks)
	}
	hl := st.Health()
	return fmt.Sprintf("%s health=%s/%d/%d/%s ans=%x", out, hl.Status, hl.Quarantined, hl.DegradedReads, hl.Breaker, h.Sum(nil)[:8]), nil
}

// runMatrixCase drives one handle kind through the whole script and returns
// the three observations: after maintenance, the data file, after reopen.
func runMatrixCase(sc *matrixScript, o StoreOptions, h matrixHandle) (string, error) {
	if o.Path != "" && h.name != "create" {
		st, err := CreateStore(o)
		if err != nil {
			return "", fmt.Errorf("seed create: %w", err)
		}
		if err := st.Close(); err != nil {
			return "", fmt.Errorf("seed close: %w", err)
		}
	}
	st, err := h.open(o)
	if err != nil {
		return "", fmt.Errorf("open: %w", err)
	}
	if err := sc.maintain(st); err != nil {
		_ = st.Close() // the script error is the one to report
		return "", err
	}
	first, err := sc.observe(st)
	if err != nil {
		_ = st.Close() // the script error is the one to report
		return "", err
	}
	if err := st.Sync(); err != nil {
		_ = st.Close() // the sync error is the one to report
		return "", fmt.Errorf("sync: %w", err)
	}
	if o.Path == "" {
		// Nothing to reopen: the re-query runs on the same handle.
		second, err := sc.observe(st)
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		return first + "\n" + second, err
	}
	if err := st.Close(); err != nil {
		return "", fmt.Errorf("close: %w", err)
	}
	data, err := os.ReadFile(o.Path)
	if err != nil {
		return "", err
	}
	reopen := h.open
	if h.name == "create" {
		reopen = openViaOpenStore
	}
	st, err = reopen(o)
	if err != nil {
		return "", fmt.Errorf("reopen: %w", err)
	}
	second, err := sc.observe(st)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return fmt.Sprintf("%s\nfile=%d/%x\n%s", first, len(data), sha256.Sum256(data), second), err
}

// TestTransformChunkedThroughServingStacks runs the chunked transform
// through every serving stack, reopens the store, and compares every cell
// with the source. TransformChunked re-reads tiles it wrote earlier in the
// same batch; on a versioned serving stack those reads resolve the building
// epoch's blocks, which no committed epoch maps, through the read leg.
// Options that set Durable without Versioned must open a versioned stack.
func TestTransformChunkedThroughServingStacks(t *testing.T) {
	src := randArray(rand.New(rand.NewSource(30)), matrixEdge, matrixEdge)
	handles := []struct {
		name string
		so   ServeOptions
	}{
		{"serve", ServeOptions{}},
		{"serve-cache", ServeOptions{CacheBlocks: 24}},
		{"serve-cache-breaker", ServeOptions{CacheBlocks: 24, Breaker: &storage.BreakerOptions{}}},
	}
	for _, form := range []Form{Standard, NonStandard} {
		for bits := 0; bits < 8; bits++ {
			o := StoreOptions{Shape: []int{matrixEdge, matrixEdge}, Form: form}
			o.Durable, o.Versioned, o.Mapped = bits&1 != 0, bits&2 != 0, bits&4 != 0
			for _, h := range handles {
				name := fmt.Sprintf("%v/durable=%v,versioned=%v,mapped=%v/%s", form, o.Durable, o.Versioned, o.Mapped, h.name)
				t.Run(name, func(t *testing.T) {
					o.Path = filepath.Join(t.TempDir(), "cube.wav")
					st, err := CreateStore(o)
					if err != nil {
						t.Fatal(err)
					}
					if err := st.Close(); err != nil {
						t.Fatal(err)
					}
					if st, err = OpenServingOpts(o.Path, h.so); err != nil {
						t.Fatal(err)
					}
					if o.Durable && !st.Versioned() {
						_ = st.Close() // the missing epoch layer is the one to report
						t.Fatal("a durable store opened without the epoch layer")
					}
					if err := st.TransformChunked(src, 3); err != nil {
						_ = st.Close() // the transform error is the one to report
						t.Fatal(err)
					}
					if err := st.Close(); err != nil {
						t.Fatal(err)
					}
					if st, err = OpenServingOpts(o.Path, h.so); err != nil {
						t.Fatal(err)
					}
					defer st.Close()
					for x := 0; x < matrixEdge; x++ {
						for y := 0; y < matrixEdge; y++ {
							got, _, err := st.Point(x, y)
							if err != nil {
								t.Fatal(err)
							}
							if want := src.At(x, y); math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
								t.Fatalf("cell (%d,%d) = %v after reopen, source has %v", x, y, got, want)
							}
						}
					}
				})
			}
		}
	}
}

func TestStackMatrixPinned(t *testing.T) {
	sc := newMatrixScript()
	fileHandles := []matrixHandle{
		{"create", openViaCreate},
		{"open", openViaOpenStore},
		{"serve", openViaServing(ServeOptions{})},
		{"serve-cache", openViaServing(ServeOptions{CacheBlocks: 24})},
		{"serve-cache-breaker", openViaServing(ServeOptions{CacheBlocks: 24, Breaker: &storage.BreakerOptions{}})},
	}
	type layout struct {
		name string
		pin  string // the twin whose pin it must match; "" is its own
		set  func(*StoreOptions)
	}
	// A layout that sets Durable without Versioned has no pin of its own:
	// Durable implies Versioned, so it must assemble exactly the stack of
	// its durable+versioned twin, pinned under the twin's name. Nor has a
	// file layout without Mapped: every file store reads through its
	// mapping, so it must match its mapped twin.
	memLayouts := []layout{
		{"plain", "", func(*StoreOptions) {}},
		{"durable", "durable+versioned", func(o *StoreOptions) { o.Durable = true }},
		{"versioned", "", func(o *StoreOptions) { o.Versioned = true }},
		{"durable+versioned", "", func(o *StoreOptions) { o.Durable, o.Versioned = true, true }},
	}
	seen := make(map[string]bool)
	check := func(name, pin string, o StoreOptions, h matrixHandle) {
		seen[pin] = true
		t.Run(name, func(t *testing.T) {
			got, err := runMatrixCase(sc, o, h)
			if err != nil {
				t.Fatal(err)
			}
			if want, ok := stackMatrixPinned[pin]; !ok || got != want {
				t.Errorf("stack behaviour moved (pinned as %s)\n got: %q\nwant: %q", pin, got, want)
			}
		})
	}
	for _, form := range []Form{Standard, NonStandard} {
		base := StoreOptions{Shape: []int{matrixEdge, matrixEdge}, Form: form}
		for _, l := range memLayouts {
			o := base
			l.set(&o)
			name, pin := fmt.Sprintf("%v/mem/%s", form, l.name), fmt.Sprintf("%v/mem/%s", form, l.pin)
			if l.pin == "" {
				pin = name
			}
			check(name, pin, o, matrixHandle{"create", openViaCreate})
		}
		for bits := 0; bits < 8; bits++ {
			o := base
			o.Durable, o.Versioned, o.Mapped = bits&1 != 0, bits&2 != 0, bits&4 != 0
			for _, h := range fileHandles {
				o.Path = filepath.Join(t.TempDir(), "cube.wav")
				name := fmt.Sprintf("%v/file/durable=%v,versioned=%v,mapped=%v/%s", form, o.Durable, o.Versioned, o.Mapped, h.name)
				pin := fmt.Sprintf("%v/file/durable=%v,versioned=%v,mapped=true/%s", form, o.Durable, o.Versioned || o.Durable, h.name)
				check(name, pin, o, h)
			}
		}
	}
	for name := range stackMatrixPinned {
		if !seen[name] {
			t.Errorf("pinned case %q no longer runs", name)
		}
	}
}
