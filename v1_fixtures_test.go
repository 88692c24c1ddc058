package shiftsplit

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

// The fixtures under internal/storage/testdata/v1 are stores written in
// on-media format v1 (see the README there). cell, delta and mergeBlock are
// the generator's; these tests are its oracle.

func v1Cell(i, j int) float64  { return float64((7*i+3*j)%11) - 5 }
func v1Delta(i, j int) float64 { return float64(i - 2*j) }

var v1MergeBlock = CubeBlock(2, 1, 2) // cells [4,8) x [8,12)

func v1MergeHat(form Form) *Array {
	d := NewArray(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			d.Set(v1Delta(i, j), i, j)
		}
	}
	return Transform(d, form)
}

// copyV1Fixture copies a fixture's three files into a fresh directory, so
// opening it (which replays and rewrites) leaves the committed bytes alone.
func copyV1Fixture(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	for _, suffix := range []string{"", ".wal", ".meta.json"} {
		b, err := os.ReadFile(filepath.Join("internal", "storage", "testdata", "v1", name+suffix))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name+suffix), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return filepath.Join(dir, name)
}

// checkV1Cells compares every cell of the store with the oracle: cell plus
// merges copies of delta over the merge block.
func checkV1Cells(t *testing.T, st *Store, merges int) {
	t.Helper()
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			want := v1Cell(i, j)
			if i >= 4 && i < 8 && j >= 8 && j < 12 {
				want += float64(merges) * v1Delta(i-4, j-8)
			}
			got, _, err := st.Point(i, j)
			if err != nil {
				t.Fatalf("cell (%d, %d): %v", i, j, err)
			}
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("cell (%d, %d) = %g, want %g", i, j, got, want)
			}
		}
	}
}

func fsckV1(t *testing.T, path string) *FsckReport {
	t.Helper()
	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestV1StoresOpen opens each v1 fixture: a durable store, a durable
// versioned store, and a durable store whose journal holds a sealed batch
// never applied. Each verifies, replays where it must, answers every cell,
// takes a merge (writing v2 frames beside the v1 ones; the versioned one's
// converts its format-1 superblock to format 2) and reopens to the same
// answers with a clean fsck.
func TestV1StoresOpen(t *testing.T) {
	for _, tc := range []struct {
		name      string
		form      Form
		merges    int // merges the fixture already holds, a sealed one included
		sealed    bool
		versioned bool
	}{
		{"durable.wav", Standard, 1, false, false},
		{"versioned.wav", NonStandard, 0, false, true},
		{"sealed.wav", Standard, 1, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := copyV1Fixture(t, tc.name)
			rep := fsckV1(t, path)
			if rep.NeedsRecovery() != tc.sealed || len(rep.Corrupt) != 0 || rep.JournalErr != "" {
				t.Fatalf("fsck of the fixture: %+v", rep)
			}
			if v := rep.Versioned; (v != nil) != tc.versioned || v != nil && v.Format != 1 {
				t.Fatalf("fsck of the fixture reads the epoch superblock %+v", v)
			}
			if rep.Written == 0 || rep.WrittenV1 != rep.Written {
				t.Fatalf("fixture holds %d written frames, %d of them v1: not a v1 store", rep.Written, rep.WrittenV1)
			}

			st, err := OpenStore(path)
			if err != nil {
				t.Fatal(err)
			}
			if n, ok := st.Recovered(); ok != tc.sealed || (tc.sealed && n == 0) {
				t.Fatalf("Recovered = %d, %v", n, ok)
			}
			checkV1Cells(t, st, tc.merges)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if rep := fsckV1(t, path); !rep.Clean() {
				t.Fatalf("fsck after open: %+v", rep)
			}

			st, err = OpenStore(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.MergeBlock(v1MergeBlock, v1MergeHat(tc.form)); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			rep = fsckV1(t, path)
			if !rep.Clean() || rep.WrittenV1 == 0 || rep.WrittenV1 == rep.Written {
				t.Fatalf("after a merge the store should mix v1 and v2 frames, clean: %+v", rep)
			}
			// The merge converted a format-1 versioned store to format 2.
			if v := rep.Versioned; (v != nil) != tc.versioned || v != nil && v.Format != 2 {
				t.Fatalf("after a merge the epoch superblock reads %+v", v)
			}
			st, err = OpenStore(path)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			checkV1Cells(t, st, tc.merges+1)
		})
	}
}
