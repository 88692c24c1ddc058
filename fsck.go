package shiftsplit

import (
	"fmt"

	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// FsckReport is the result of checking a durable store's on-disk state;
// see storage.FsckReport for the fields.
type FsckReport = storage.FsckReport

// Fsck verifies a file-backed durable store without opening (or modifying)
// it: every block frame is verified against its check word, and counted by
// format version (FsckReport.WrittenV1), and the write-ahead journal is
// inspected for an interrupted maintenance batch.
// A report with NeedsRecovery() true means OpenStore would roll the batch
// forward; JournalErr is non-empty only for media-level corruption the
// journal protocol cannot repair.
func Fsck(path string) (*FsckReport, error) {
	m, err := readMeta(path)
	if err != nil {
		return nil, err
	}
	if !m.Durable {
		return nil, fmt.Errorf("shiftsplit: %s is not a durable store (created without StoreOptions.Durable); it has no checksums or journal to verify", path)
	}
	tiling, _, err := tilingForMeta(m)
	if err != nil {
		return nil, err
	}
	rep, err := storage.Fsck(path, tiling.BlockSize())
	if err != nil {
		return nil, err
	}
	if m.Versioned {
		// Best-effort: a torn or corrupt superblock already shows up in
		// rep.Corrupt; the decoded view is reported only when it verifies.
		if info, ierr := storage.FsckVersioned(path, tiling.BlockSize(), tiling.NumBlocks()); ierr == nil {
			rep.Versioned = info
		}
	}
	return rep, nil
}
