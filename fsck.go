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
// inspected for an interrupted maintenance batch. On a versioned store both
// superblock slots are decoded, and a failing frame counts as corrupt only
// where a committed epoch references it (FsckReport.Unreachable lists the
// rest). A store in a layout older binaries wrote is checked in that
// layout, and FsckReport.Upgrade says what the next open rewrites.
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
	info, ierr := storage.FsckVersioned(path, tiling.BlockSize(), tiling.NumBlocks())
	switch {
	case !m.Versioned:
		flat, err := flatLayout(info, ierr)
		if err != nil {
			return nil, err
		}
		if flat {
			rep.Upgrade = string(upgradeFlat)
			return rep, nil
		}
		rep.Upgrade = string(upgradeSidecar)
	case info != nil && info.Format == 1:
		rep.Upgrade = string(upgradeFormat1)
	}
	rep.Versioned = info // the slots' states, even when the table does not load
	if ierr != nil {
		rep.VersionedErr = ierr.Error()
		return rep, nil
	}
	// A torn frame no committed epoch references is free space.
	corrupt := rep.Corrupt[:0]
	for _, id := range rep.Corrupt {
		if info.Reachable(id) {
			corrupt = append(corrupt, id)
		} else {
			rep.Unreachable = append(rep.Unreachable, id)
		}
	}
	rep.Corrupt = corrupt
	return rep, nil
}
