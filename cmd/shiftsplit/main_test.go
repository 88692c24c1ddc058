package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/shiftsplit/shiftsplit"
	"github.com/shiftsplit/shiftsplit/internal/storage"
)

func TestParseInts(t *testing.T) {
	cases := []struct {
		in   string
		want []int
		err  bool
	}{
		{"64x64", []int{64, 64}, false},
		{"5,7", []int{5, 7}, false},
		{"16x16x16x16", []int{16, 16, 16, 16}, false},
		{"8", []int{8}, false},
		{"", nil, true},
		{"a,b", nil, true},
	}
	for _, c := range cases {
		got, err := parseInts(c.in)
		if c.err {
			if err == nil {
				t.Errorf("parseInts(%q) accepted", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseInts(%q): %v", c.in, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("parseInts(%q) = %v", c.in, got)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("parseInts(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

func TestParseForm(t *testing.T) {
	if f, err := parseForm("standard"); err != nil || f != shiftsplit.Standard {
		t.Error("standard form parse failed")
	}
	if f, err := parseForm("non-standard"); err != nil || f != shiftsplit.NonStandard {
		t.Error("non-standard form parse failed")
	}
	if f, err := parseForm("nonstandard"); err != nil || f != shiftsplit.NonStandard {
		t.Error("nonstandard alias parse failed")
	}
	if _, err := parseForm("wavelets"); err == nil {
		t.Error("garbage form accepted")
	}
}

func TestTransformAndQueryCommands(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "t.wav")
	if err := cmdTransform([]string{"-out", store, "-shape", "16x16", "-chunk", "2", "-tile", "2"}); err != nil {
		t.Fatalf("transform: %v", err)
	}
	if _, err := os.Stat(store); err != nil {
		t.Fatalf("store file missing: %v", err)
	}
	if err := cmdQuery([]string{"-store", store, "-point", "3,5"}); err != nil {
		t.Fatalf("point query: %v", err)
	}
	if err := cmdQuery([]string{"-store", store, "-start", "0,0", "-extent", "8,8"}); err != nil {
		t.Fatalf("range query: %v", err)
	}
	if err := cmdQuery([]string{"-store", store}); err == nil {
		t.Error("query without selector accepted")
	}
	if err := cmdExtract([]string{"-store", store, "-start", "4,4", "-extent", "4,4"}); err != nil {
		t.Fatalf("extract: %v", err)
	}
	// Non-dyadic extract falls back to box extraction.
	if err := cmdExtract([]string{"-store", store, "-start", "3,4", "-extent", "5,4"}); err != nil {
		t.Fatalf("box extract: %v", err)
	}
}

func TestAppendAndStreamCommands(t *testing.T) {
	if err := cmdAppend([]string{"-months", "3", "-tile", "1"}); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := cmdStream([]string{"-n", "4096", "-buf", "3", "-k", "8"}); err != nil {
		t.Fatalf("stream: %v", err)
	}
}

func TestTransformRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	if err := cmdTransform([]string{"-out", filepath.Join(dir, "x.wav"), "-shape", "15x15"}); err == nil {
		t.Error("non-power-of-two shape accepted")
	}
	if err := cmdTransform([]string{"-out", filepath.Join(dir, "x.wav"), "-shape", "16x16", "-form", "bogus"}); err == nil {
		t.Error("bogus form accepted")
	}
	if err := cmdTransform([]string{"-out", filepath.Join(dir, "x.wav"), "-shape", "16x16", "-data", "bogus"}); err == nil {
		t.Error("bogus dataset accepted")
	}
	for _, form := range []string{"standard", "non-standard"} {
		if err := cmdTransform([]string{"-out", filepath.Join(dir, "x.wav"), "-shape", "16x16", "-form", form, "-chunk", "-1"}); err == nil {
			t.Errorf("%s: negative chunk bits accepted", form)
		}
	}
}

func TestCompressAndApproxCommands(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "c.wav")
	syn := filepath.Join(dir, "c.syn")
	if err := cmdTransform([]string{"-out", store, "-shape", "32x32", "-chunk", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdCompress([]string{"-store", store, "-out", syn, "-k", "64"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(syn); err != nil {
		t.Fatalf("synopsis file missing: %v", err)
	}
	if err := cmdApprox([]string{"-syn", syn, "-point", "5,7"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdApprox([]string{"-syn", syn, "-start", "0,0", "-extent", "16,16"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdApprox([]string{"-syn", syn}); err == nil {
		t.Error("approx without selector accepted")
	}
}

func TestInfoCommand(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "i.wav")
	if err := cmdTransform([]string{"-out", store, "-shape", "16x16", "-chunk", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdInfo([]string{"-store", store}); err != nil {
		t.Fatal(err)
	}
	if err := cmdInfo([]string{"-store", filepath.Join(dir, "missing.wav")}); err == nil {
		t.Error("missing store accepted")
	}
}

func TestDurableTransformFsckRecover(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "d.wav")
	if err := cmdTransform([]string{"-out", store, "-shape", "16x16", "-chunk", "2", "-durable"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(store + ".wal"); err != nil {
		t.Fatalf("journal sidecar missing: %v", err)
	}
	if err := cmdFsck([]string{"-store", store}); err != nil {
		t.Fatalf("fsck on a clean store: %v", err)
	}
	if err := cmdRecover([]string{"-store", store}); err != nil {
		t.Fatalf("recover on a clean store: %v", err)
	}
	// Queries work the same on a durable store.
	if err := cmdQuery([]string{"-store", store, "-point", "3,5"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdInfo([]string{"-store", store}); err != nil {
		t.Fatal(err)
	}
}

func TestFsckRejectsPlainStore(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "p.wav")
	if err := cmdTransform([]string{"-out", store, "-shape", "16x16", "-chunk", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdFsck([]string{"-store", store}); err == nil {
		t.Error("fsck accepted a non-durable store")
	}
}

// TestFsckFlagsTamperedStore rots a byte of a fresh durable store, flipped
// once, in its current superblock slot (frame 1: byte 200) and in the frame
// of a data block: fsck must exit with the corruption code on both. The
// first flip retired slot 0, so a rotted slot 1 leaves no epoch to open,
// rather than the empty epoch 0.
func TestFsckFlagsTamperedStore(t *testing.T) {
	for _, tc := range []struct {
		name string
		rot  func(t *testing.T, store string)
	}{
		{"slot", func(t *testing.T, store string) { rotAt(t, store, 200) }},
		{"data", func(t *testing.T, store string) { rotLogical(t, store, 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := filepath.Join(t.TempDir(), "d.wav")
			if err := cmdTransform([]string{"-out", store, "-shape", "16x16", "-chunk", "2", "-durable"}); err != nil {
				t.Fatal(err)
			}
			tc.rot(t, store)
			if code := exitCodeOf(cmdFsck([]string{"-store", store})); code != exitCorrupt {
				t.Errorf("fsck of a tampered store exit code %d, want %d", code, exitCorrupt)
			}
		})
	}
}

// rotAt writes a byte at offset off of the data file.
func rotAt(t *testing.T, store string, off int64) {
	t.Helper()
	f, err := os.OpenFile(store, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte{0xAB}, off); err != nil {
		t.Fatal(err)
	}
}

// rotLogical writes a byte into the frame of the block that holds logical
// block id of a durable store, 56 bytes into the frame.
func rotLogical(t *testing.T, store string, id int) {
	t.Helper()
	rep, err := shiftsplit.Fsck(store)
	if err != nil {
		t.Fatal(err)
	}
	phys := rep.Versioned.Phys(id)
	if phys < 0 {
		t.Fatalf("logical block %d is unmapped", id)
	}
	rotAt(t, store, int64(phys)*int64(8*(rep.BlockSize+storage.ChecksumOverhead))+56)
}

func exitCodeOf(err error) int {
	if err == nil {
		return exitOK
	}
	var xe *exitError
	if errors.As(err, &xe) {
		return xe.code
	}
	return exitFailure
}

func TestFsckExitCodesAndScrub(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "d.wav")
	if err := cmdTransform([]string{"-out", store, "-shape", "16x16", "-chunk", "2", "-durable"}); err != nil {
		t.Fatal(err)
	}
	if code := exitCodeOf(cmdFsck([]string{"-store", store})); code != exitOK {
		t.Fatalf("clean fsck exit code %d, want %d", code, exitOK)
	}

	// Rot the medium: fsck must exit with the corruption code, and -scrub
	// must persist the quarantine so a reopened store starts degraded.
	rotLogical(t, store, 1)
	if code := exitCodeOf(cmdFsck([]string{"-store", store})); code != exitCorrupt {
		t.Fatalf("corrupt fsck exit code %d, want %d", code, exitCorrupt)
	}
	if code := exitCodeOf(cmdFsck([]string{"-store", store, "-scrub"})); code != exitCorrupt {
		t.Fatalf("corrupt fsck -scrub exit code %d, want %d", code, exitCorrupt)
	}
	st, err := shiftsplit.OpenStore(store)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if len(st.Quarantined()) == 0 {
		t.Fatal("fsck -scrub did not persist the quarantine")
	}
	if st.Health().Status != "degraded" {
		t.Fatalf("reopened store health = %+v", st.Health())
	}
}

// TestUsageListsNoRetiredCommands checks that 'shiftsplit help' lists every
// dispatched command and neither retired load generator (bench/run.sh
// measures their workloads).
func TestUsageListsNoRetiredCommands(t *testing.T) {
	for _, cmd := range []string{"transform", "query", "extract", "append", "stream",
		"compress", "approx", "serve", "info", "fsck", "recover"} {
		if !strings.Contains(usageText, "\n  "+cmd+" ") {
			t.Errorf("usage does not list %q", cmd)
		}
	}
	for _, cmd := range []string{"bench-serve", "bench-ingest"} {
		if strings.Contains(usageText, cmd) {
			t.Errorf("usage still lists retired command %q", cmd)
		}
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	ferr := fn()
	os.Stdout = stdout
	w.Close()
	return string(<-done), ferr
}

// TestFsckNamesPendingUpgrade runs fsck and info on stores written in the
// layouts older binaries wrote (the v1 fixtures): fsck checks each in its
// own layout, prints the upgrade the next open performs and keeps its exit
// codes (0 clean, 3 for a sealed batch); a format-1 conversion an older
// writer left cut in its flip exits 3, not 4, and needs no upgrade. info
// opens, and so upgrades, a flat store and prints format 2.
func TestFsckNamesPendingUpgrade(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name    string
		code    int
		upgrade bool
	}{
		{"durable.wav", exitOK, true},
		{"versioned.wav", exitOK, true},
		{"sealed.wav", exitNeedsRecovery, true},
		{"converting.wav", exitNeedsRecovery, false},
	} {
		store := filepath.Join(dir, tc.name)
		for _, suffix := range []string{"", ".wal", ".meta.json"} {
			b, err := os.ReadFile(filepath.Join("..", "..", "internal", "storage", "testdata", "v1", tc.name+suffix))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(store+suffix, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		out, err := captureStdout(t, func() error { return cmdFsck([]string{"-store", store}) })
		if code := exitCodeOf(err); code != tc.code {
			t.Errorf("%s: fsck exit code %d, want %d\n%s", tc.name, code, tc.code, out)
		}
		if got := strings.Contains(out, "upgrade:  "); got != tc.upgrade {
			t.Errorf("%s: fsck prints an upgrade line: %v, want %v\n%s", tc.name, got, tc.upgrade, out)
		}
	}
	store := filepath.Join(dir, "durable.wav")
	out, err := captureStdout(t, func() error { return cmdInfo([]string{"-store", store}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "format:     2") {
		t.Errorf("info of the upgraded store:\n%s", out)
	}
	out, err = captureStdout(t, func() error { return cmdFsck([]string{"-store", store}) })
	if err != nil || strings.Contains(out, "upgrade:") {
		t.Errorf("fsck after the upgrade (%v):\n%s", err, out)
	}
}
