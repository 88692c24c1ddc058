package shiftsplit

import (
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/storage"
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

// v1Fixtures are the legacy fixtures the upgrade rewrites: a flat durable
// store, a durable versioned store in format 1, and a flat durable store
// whose journal holds a sealed batch never applied.
var v1Fixtures = []struct {
	name      string
	form      Form
	merges    int // merges the fixture holds, a sealed one included
	sealed    bool
	versioned bool
}{
	{"durable.wav", Standard, 1, false, false},
	{"versioned.wav", NonStandard, 0, false, true},
	{"sealed.wav", Standard, 1, true, false},
}

// v1Opens are the two entry points that upgrade a store at open.
var v1Opens = []struct {
	name string
	open func(string) (*Store, error)
}{
	{"OpenStore", OpenStore},
	{"OpenServingOpts", func(path string) (*Store, error) { return OpenServingOpts(path, ServeOptions{CacheBlocks: 8}) }},
}

// TestV1StoresOpen opens each v1 fixture through OpenStore and through
// OpenServingOpts. Fsck first reads it in its own layout, clean or with the
// sealed batch pending, and names the upgrade; the open rewrites it as a
// durable format-2 store, replaying the sealed batch on the way, and it
// answers every cell. Fsck is then clean, in format 2, with no v1 frame
// left, no upgrade pending and an empty journal, and no temporary file
// remains. A merge and a reopen answer exactly.
func TestV1StoresOpen(t *testing.T) {
	for _, tc := range v1Fixtures {
		t.Run(tc.name, func(t *testing.T) {
			for _, h := range v1Opens {
				t.Run(h.name, func(t *testing.T) {
					path := copyV1Fixture(t, tc.name)
					rep := fsckV1(t, path)
					if rep.NeedsRecovery() != tc.sealed || len(rep.Corrupt) != 0 || rep.JournalErr != "" || rep.VersionedErr != "" {
						t.Fatalf("fsck of the fixture: %+v", rep)
					}
					if v := rep.Versioned; (v != nil) != tc.versioned || v != nil && v.Format != 1 {
						t.Fatalf("fsck of the fixture reads the epoch superblock %+v", v)
					}
					if rep.Upgrade == "" {
						t.Fatal("fsck of the fixture names no upgrade")
					}
					if rep.Written == 0 || rep.WrittenV1 != rep.Written {
						t.Fatalf("fixture holds %d written frames, %d of them v1: not a v1 store", rep.Written, rep.WrittenV1)
					}

					st, err := h.open(path)
					if err != nil {
						t.Fatal(err)
					}
					if !st.Durable() || !st.Versioned() {
						t.Fatalf("upgraded store: durable %v, versioned %v", st.Durable(), st.Versioned())
					}
					if n, ok := st.Recovered(); ok != tc.sealed || (tc.sealed && n == 0) {
						t.Fatalf("Recovered = %d, %v", n, ok)
					}
					checkV1Cells(t, st, tc.merges)
					if err := st.Close(); err != nil {
						t.Fatal(err)
					}
					rep = fsckV1(t, path)
					if !rep.Clean() || rep.Upgrade != "" || rep.Versioned == nil || rep.Versioned.Format != 2 ||
						rep.WrittenV1 != 0 || !rep.JournalPresent || rep.JournalEntries != 0 {
						t.Fatalf("fsck after the upgrade: %+v", rep)
					}
					if m, err := readMeta(path); err != nil || !m.Versioned {
						t.Fatalf("sidecar after the upgrade: %+v, %v", m, err)
					}
					for _, f := range []string{upgradeTemp(path), upgradeTemp(path) + ".wal", upgradeTemp(path) + ".meta.json"} {
						if _, err := os.Stat(f); !os.IsNotExist(err) {
							t.Fatalf("the upgrade left %s behind (%v)", f, err)
						}
					}

					st, err = h.open(path)
					if err != nil {
						t.Fatal(err)
					}
					if _, ok := st.Recovered(); ok {
						t.Fatal("the reopen replayed a batch again")
					}
					if err := st.MergeBlock(v1MergeBlock, v1MergeHat(tc.form)); err != nil {
						t.Fatal(err)
					}
					if err := st.Close(); err != nil {
						t.Fatal(err)
					}
					if rep := fsckV1(t, path); !rep.Clean() || rep.Versioned == nil || rep.Versioned.Format != 2 {
						t.Fatalf("fsck after a merge: %+v", rep)
					}
					st, err = h.open(path)
					if err != nil {
						t.Fatal(err)
					}
					defer st.Close()
					checkV1Cells(t, st, tc.merges+1)
				})
			}
		})
	}
}

// TestV1ConversionCutOpens opens converting.wav: versioned.wav cut by a
// power failure while an older writer converted it to format 2 inside its
// first merge's flip, with the new superblock slot sealed in the journal
// and torn in the data file. Fsck reads the sealed batch over the file: a
// format-2 store with a batch to replay, not a corrupt one. The open
// replays the slot instead of upgrading, and the store holds the merge.
func TestV1ConversionCutOpens(t *testing.T) {
	path := copyV1Fixture(t, "converting.wav")
	rep := fsckV1(t, path)
	if !rep.NeedsRecovery() || len(rep.Corrupt) != 0 || rep.JournalErr != "" || rep.VersionedErr != "" ||
		rep.Upgrade != "" || rep.Versioned == nil || rep.Versioned.Format != 2 {
		t.Fatalf("fsck of the cut conversion: %+v", rep)
	}
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := st.Recovered(); !ok || n == 0 {
		t.Fatalf("Recovered = %d, %v", n, ok)
	}
	checkV1Cells(t, st, 1)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if rep := fsckV1(t, path); !rep.Clean() || rep.Versioned == nil || rep.Versioned.Format != 2 || rep.JournalEntries != 0 {
		t.Fatalf("fsck after the open: %+v", rep)
	}
}

// TestUpgradeCarriesRot upgrades a flat fixture with one rotted frame. The
// open succeeds; the frame is copied as it was, so it still fails
// verification in the format-2 store and comes quarantined: a scrub keeps
// it there, a read of every block serves it degraded, and a whole-domain
// write through the serving handle heals the store.
func TestUpgradeCarriesRot(t *testing.T) {
	path := copyV1Fixture(t, "durable.wav")
	flipFrameByte(t, path, 3, 16)
	st, err := OpenServing(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := rep.Versioned.Phys(3)
	if recs := st.Quarantined(); len(recs) != 1 || recs[0].Block != bad || len(rep.Corrupt) != 1 || rep.Corrupt[0] != bad {
		t.Fatalf("quarantine %v, fsck corrupt %v, want block %d", recs, rep.Corrupt, bad)
	}
	if n, err := st.ScrubOnce(context.Background()); err != nil || n != 1 {
		t.Fatalf("scrub: %d quarantined, %v", n, err)
	}
	before := st.DegradedReads()
	if _, err := st.ReadTransform(); err != nil {
		t.Fatal(err)
	}
	if st.DegradedReads() == before {
		t.Fatal("a read of the rotted block was not served degraded")
	}
	a := NewArray(16, 16)
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			a.Set(v1Cell(i, j), i, j)
		}
	}
	if err := st.Materialize(a); err != nil {
		t.Fatal(err)
	}
	if n, err := st.ScrubOnce(context.Background()); err != nil || n != 0 || st.Health().Status != "ok" {
		t.Fatalf("after the heal: scrub %d, %v, health %+v", n, err, st.Health())
	}
	checkV1Cells(t, st, 0)
}

// TestUpgradeNonDurableFormat1 lays out a non-durable versioned store in
// format 1 by hand (the superblock at block 0, one table value per logical
// block after it, the data past the table) from a plain store's blocks,
// and opens it: the upgrade rewrites it in format 2 and it answers as the
// plain store did.
func TestUpgradeNonDurableFormat1(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain.wav")
	st, err := CreateStore(StoreOptions{Shape: []int{16, 16}, Form: Standard, Path: plain})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Materialize(randArray(rand.New(rand.NewSource(71)), 16, 16)); err != nil {
		t.Fatal(err)
	}
	want, err := st.ReadTransform()
	if err != nil {
		t.Fatal(err)
	}
	bs, logical := st.BlockSize(), st.NumBlocks()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	src, err := storage.OpenFileStore(plain, bs)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	path := filepath.Join(dir, "v1.wav")
	dst, err := storage.NewFileStore(path, bs)
	if err != nil {
		t.Fatal(err)
	}
	hdr, pages := 1, (logical+bs-1)/bs // five superblock values fit one block
	word := func(v uint64) float64 { return math.Float64frombits(v) }
	super := make([]float64, bs)
	copy(super, []float64{word(0x5353_4550_4f43_4831), word(1), word(3), word(uint64(logical)), word(uint64(pages))})
	table := make([]float64, pages*bs)
	buf := make([]float64, bs)
	for id := 0; id < logical; id++ {
		phys := hdr + pages + logical - 1 - id // reversed, so no block sits at its logical id
		table[id] = word(uint64(phys) + 1)
		if err := src.ReadBlock(id, buf); err != nil {
			t.Fatal(err)
		}
		if err := dst.WriteBlock(phys, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := dst.WriteBlock(0, super); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < pages; p++ {
		if err := dst.WriteBlock(hdr+p, table[p*bs:(p+1)*bs]); err != nil {
			t.Fatal(err)
		}
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	if err := writeMeta(path, storeMeta{Shape: []int{16, 16}, Form: Standard.String(), TileBits: 2, Materialized: true, Versioned: true}); err != nil {
		t.Fatal(err)
	}
	up, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	got, err := up.ReadTransform()
	if err != nil {
		t.Fatal(err)
	}
	if !equalExact(got, want) {
		t.Fatal("the upgraded store does not answer as the one laid out in format 1")
	}
	if es, ok := up.EpochStats(); !ok || es.Epoch != 1 {
		t.Fatalf("upgraded store: epoch stats %+v, %v", es, ok)
	}
}
