package shiftsplit

import (
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func crashSeed(t *testing.T) int64 {
	t.Helper()
	if s := os.Getenv("SHIFTSPLIT_CRASH_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad SHIFTSPLIT_CRASH_SEED %q: %v", s, err)
		}
		return n
	}
	return 1
}

// equalExact compares two transforms coefficient-for-coefficient, no
// tolerance: recovery must reproduce the committed state bit-for-bit.
func equalExact(a, b *Array) bool {
	da, db := a.Data(), b.Data()
	if len(da) != len(db) {
		return false
	}
	for i := range da {
		if da[i] != db[i] {
			return false
		}
	}
	return true
}

func TestDurableStoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := randArray(rng, 16, 16)
	path := filepath.Join(t.TempDir(), "cube.wav")
	st, err := CreateStore(StoreOptions{Shape: []int{16, 16}, Form: Standard, Path: path, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Durable() {
		t.Fatal("store does not report durable")
	}
	if err := st.TransformChunked(src, 2); err != nil {
		t.Fatal(err)
	}
	hat, err := st.ReadTransform()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if !st2.Durable() {
		t.Fatal("reopened store lost durability")
	}
	if _, recovered := st2.Recovered(); recovered {
		t.Fatal("clean reopen reported a recovery")
	}
	hat2, err := st2.ReadTransform()
	if err != nil {
		t.Fatal(err)
	}
	if !equalExact(hat, hat2) {
		t.Fatal("transform changed across close/reopen")
	}
	p := []int{3, 14}
	v, _, err := st2.Point(p...)
	if err != nil {
		t.Fatal(err)
	}
	if d := v - src.At(p...); d > 1e-8 || d < -1e-8 {
		t.Fatalf("point %v = %g, want %g", p, v, src.At(p...))
	}
	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("fsck not clean: %+v", rep)
	}
}

// TestDurableImpliesVersioned creates durable stores without asking for
// the epoch layer: they run on it, in memory and on file, and the sidecar
// records it, so the file reopens on it.
func TestDurableImpliesVersioned(t *testing.T) {
	for _, path := range []string{"", filepath.Join(t.TempDir(), "cube.wav")} {
		st, err := CreateStore(StoreOptions{Shape: []int{8, 8}, Form: Standard, Path: path, Durable: true})
		if err != nil {
			t.Fatal(err)
		}
		if !st.Versioned() {
			t.Fatalf("durable store at %q has no epoch layer", path)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if path == "" {
			continue
		}
		if m, err := readMeta(path); err != nil || !m.Versioned || !m.Durable {
			t.Fatalf("sidecar %+v, %v", m, err)
		}
		if st, err = OpenStore(path); err != nil {
			t.Fatal(err)
		}
		if !st.Versioned() {
			t.Fatal("reopened durable store has no epoch layer")
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFsckRejectsNonDurableStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plain.wav")
	st, err := CreateStore(StoreOptions{Shape: []int{8, 8}, Form: Standard, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Fsck(path); err == nil {
		t.Fatal("fsck accepted a non-durable store")
	}
}

func TestSaveMetaLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cube.wav")
	st, err := CreateStore(StoreOptions{Shape: []int{8, 8}, Form: Standard, Path: path, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("stray temp file %q after atomic meta writes", e.Name())
		}
	}
}
