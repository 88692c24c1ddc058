package shiftsplit

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// TestFailedOpenReleasesDevices: an open that fails after the devices are
// up — here the epoch layer rejecting a superblock neither of whose slots
// verifies — must close the data file, the journal and the mapping it
// opened.
func TestFailedOpenReleasesDevices(t *testing.T) {
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot count open files: %v", err)
		}
		return len(ents)
	}
	for _, mapped := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "cube.wav")
		st, err := CreateStore(StoreOptions{Shape: []int{16, 16}, Path: path, Durable: true, Versioned: true, Mapped: mapped})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.TransformChunked(randArray(rand.New(rand.NewSource(3)), 16, 16), 2); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		frame := make([]byte, 3)
		for slot := 0; slot < 2; slot++ {
			at := int64(slot*(st.BlockSize()+storage.ChecksumOverhead)*8 + 8)
			if _, err := f.ReadAt(frame, at); err != nil {
				t.Fatal(err)
			}
			for i := range frame {
				frame[i] ^= 0xFF
			}
			if _, err := f.WriteAt(frame, at); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		before := openFDs()
		for i := 0; i < 20; i++ {
			if st, err := OpenStore(path); err == nil {
				st.Close()
				t.Fatal("OpenStore accepted a corrupt superblock")
			}
			if st, err := OpenServingOpts(path, ServeOptions{CacheBlocks: 8}); err == nil {
				st.Close()
				t.Fatal("OpenServingOpts accepted a corrupt superblock")
			}
		}
		if after := openFDs(); after != before {
			t.Errorf("mapped=%v: 40 failed opens took open files from %d to %d", mapped, before, after)
		}
		if maps, err := os.ReadFile("/proc/self/maps"); err == nil && bytes.Contains(maps, []byte(path)) {
			t.Errorf("mapped=%v: a failed open left %s mapped", mapped, path)
		}
	}
}
