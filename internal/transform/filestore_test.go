package transform

import (
	"path/filepath"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
	"github.com/shiftsplit/shiftsplit/internal/wavelet"
)

// TestEnginesAgainstRealFiles drives the chunked engines end-to-end against
// actual on-disk block files — the paper's "accurate implementations of the
// operations on real disks with real disk blocks" (§6) — then reopens the
// files cold and verifies every coefficient.
func TestEnginesAgainstRealFiles(t *testing.T) {
	dir := t.TempDir()
	src := dataset.Dense([]int{32, 32}, 42)

	t.Run("standard", func(t *testing.T) {
		tiling := tile.NewStandard([]int{5, 5}, 2)
		path := filepath.Join(dir, "std.blocks")
		fs, err := storage.NewFileStore(path, tiling.BlockSize())
		if err != nil {
			t.Fatal(err)
		}
		st, err := tile.NewStore(fs, tiling)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ChunkedStandard(src, 3, st, 0); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		// Reopen cold.
		fs2, err := storage.OpenFileStore(path, tiling.BlockSize())
		if err != nil {
			t.Fatal(err)
		}
		st2, err := tile.NewStore(fs2, tiling)
		if err != nil {
			t.Fatal(err)
		}
		defer st2.Close()
		verifyAgainst(t, st2, wavelet.TransformStandard(src), 1e-8)
	})

	t.Run("non-standard", func(t *testing.T) {
		tiling := tile.NewNonStandard(5, 2, 2)
		path := filepath.Join(dir, "nonstd.blocks")
		fs, err := storage.NewFileStore(path, tiling.BlockSize())
		if err != nil {
			t.Fatal(err)
		}
		st, err := tile.NewStore(fs, tiling)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ChunkedNonStandard(src, 2, st, 0); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		fs2, err := storage.OpenFileStore(path, tiling.BlockSize())
		if err != nil {
			t.Fatal(err)
		}
		st2, err := tile.NewStore(fs2, tiling)
		if err != nil {
			t.Fatal(err)
		}
		defer st2.Close()
		verifyAgainst(t, st2, wavelet.TransformNonStandard(src), 1e-8)
	})

	t.Run("vitter", func(t *testing.T) {
		path := filepath.Join(dir, "vitter.blocks")
		fs, err := storage.NewFileStore(path, 8)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Vitter(src, 64, fs, 8); err != nil {
			t.Fatal(err)
		}
		if err := fs.Close(); err != nil {
			t.Fatal(err)
		}
		fs2, err := storage.OpenFileStore(path, 8)
		if err != nil {
			t.Fatal(err)
		}
		st2, err := tile.NewStore(fs2, tile.NewSequential([]int{32, 32}, 8))
		if err != nil {
			t.Fatal(err)
		}
		defer st2.Close()
		verifyAgainst(t, st2, wavelet.TransformStandard(src), 1e-8)
	})
}
