package shiftsplit

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"

	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// This file brings a store written in a layout older binaries wrote to the
// one durable layout, format 2 of the epoch layer, when it is opened: a
// flat durable store (blocks in place behind a write-ahead journal), which
// its sidecar names, and a file-backed versioned store, durable or not, in
// format 1 (one superblock and the remap table in place ahead of the
// data), which the epoch layer refuses to load. A store in the current
// layout is decoded once, by the assembly. The upgrade reads every mapped
// logical block with what reads the old layout, writes them into a fresh
// format-2 store beside the file, flips and closes it, renames it over the
// data file, syncs the directory, and writes the sidecar last. A block
// whose frame fails verification is carried over as it was and listed as
// quarantined. A crash before the rename leaves the old store (and a
// temporary file the next open removes). One after it leaves the new data
// file: under a flat sidecar, the next open finds a superblock slot that
// verifies and finishes by rewriting the sidecar; under a format-1 one,
// the new file simply loads, so the upgrade first clears that sidecar's
// quarantine records, which name blocks of the old layout. The journal
// sidecar stays where it was, emptied by the old layout's own recovery.

// upgradeKind is what opening a store rewrites, as fsck reports it.
type upgradeKind string

const (
	upgradeFlat    upgradeKind = "flat durable store; the next open rewrites it as a versioned store (format 2)"
	upgradeFormat1 upgradeKind = "versioned store in format 1; the next open rewrites it in format 2"
	upgradeSidecar upgradeKind = "an interrupted upgrade left a format-2 data file; the next open rewrites the sidecar"
)

// upgradeTemp is where the upgrade builds the new store.
func upgradeTemp(path string) string { return path + ".upgrade" }

// format1Error is assemble's refusal of a versioned store in format 1,
// with the blocks its Durable replayed from the journal on the way.
type format1Error struct{ replayed int }

func (format1Error) Error() string { return storage.ErrFormat1.Error() }
func (format1Error) Unwrap() error { return storage.ErrFormat1 }

// open reads the sidecar of the store at sp.path, upgrades a legacy layout
// and assembles the stack sp describes.
func open(sp stackSpec) (*Store, error) {
	m, err := readMeta(sp.path)
	if err != nil {
		return nil, err
	}
	tmp := upgradeTemp(sp.path)
	if err := removeAll(tmp, storage.WalPath(tmp), metaPath(tmp)); err != nil {
		return nil, err
	}
	replayed := 0
	if m.Durable && !m.Versioned {
		if replayed, err = upgrade(sp, &m); err != nil {
			return nil, err
		}
	}
	sp.meta = m
	st, err := assemble(sp)
	var f1 format1Error
	if errors.As(err, &f1) {
		if _, err := upgrade(sp, &m); err != nil {
			return nil, err
		}
		replayed, sp.meta = f1.replayed, m
		st, err = assemble(sp)
	}
	if err != nil {
		return nil, err
	}
	st.replayed = replayed
	return st, nil
}

// flatLayout reports whether a durable data file whose sidecar says flat
// still holds the flat layout, from its superblock slots as
// ReadVersionedInfo decoded them: true when both slots were read and
// neither verifies. One that verifies makes it a format-2 file an upgrade
// was cut after renaming; an error that left a slot unread is returned,
// not taken for a flat file.
func flatLayout(info *storage.VersionedInfo, err error) (bool, error) {
	switch {
	case info != nil && slices.ContainsFunc(info.Slots[:], func(s storage.SlotInfo) bool { return s.State == storage.SlotValid }):
		return false, nil
	case info == nil || info.Slots[0].State == "" || info.Slots[1].State == "" || err != nil && !storage.IsCorruption(err):
		return false, fmt.Errorf("shiftsplit: read the superblock slots of a flat durable store: %w", cmp.Or(err, storage.ErrCorruption))
	}
	return true, nil
}

// upgrade rewrites the store at sp.path in format 2 — a flat durable store
// when *m says flat, else one in format 1 — or, under a flat sidecar
// over a format-2 data file, only rewrites the sidecar. It updates *m to
// the sidecar it writes and returns how many blocks the flat layout's
// journal replayed. sp.plan, when non-nil, cuts the power at one of its
// writes, syncs and renames.
func upgrade(sp stackSpec, m *storeMeta) (replayed int, err error) {
	path, plan := sp.path, sp.plan
	defer func() {
		if err != nil {
			err = fmt.Errorf("shiftsplit: upgrade %s: %w", path, err)
		}
	}()
	tiling, _, err := tilingForMeta(*m)
	if err != nil {
		return 0, err
	}
	data := m.Versioned
	if !data {
		sp.meta = *m
		if data, err = flatLayout(readVersionedInfo(sp, tiling.BlockSize(), tiling.NumBlocks())); err != nil {
			return 0, err
		}
	}
	up := *m
	up.Versioned, up.Quarantined = true, nil
	if data {
		if replayed, up.Quarantined, err = rewrite(path, upgradeTemp(path), *m, up, plan); err != nil {
			return 0, err
		}
		if m.Versioned && len(m.Quarantined) > 0 {
			old := *m
			old.Quarantined = nil
			if err := plan.Atomic(func() error { return writeMeta(path, old) }); err != nil {
				return 0, err
			}
		}
		if err := plan.Atomic(func() error { return os.Rename(upgradeTemp(path), path) }); err != nil {
			return 0, err
		}
		if err := plan.Atomic(func() error { return syncDir(filepath.Dir(path)) }); err != nil {
			return 0, err
		}
	}
	if err := plan.Atomic(func() error { return writeMeta(path, up) }); err != nil {
		return 0, err
	}
	*m = up
	return replayed, nil
}

// removeAll removes the files that exist of paths.
func removeAll(paths ...string) error {
	for _, f := range paths {
		if err := os.Remove(f); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return nil
}

// rewrite copies the store old describes at path into a fresh format-2
// store up describes at tmp, closed and synced, and returns how many blocks
// the old journal replayed and the quarantine records of the blocks whose
// frames failed verification. Those are copied as they were, so they fail
// verification in the new store too. Only the data file at tmp is left
// behind.
func rewrite(path, tmp string, old, up storeMeta, plan *storage.CrashPlan) (replayed int, rotted []storage.QuarantineRecord, err error) {
	tiling, _, err := tilingForMeta(old)
	if err != nil {
		return 0, nil, err
	}
	bs, logical := tiling.BlockSize(), tiling.NumBlocks()
	src, err := openLegacy(stackSpec{meta: old, path: path, plan: plan}, bs)
	if err != nil {
		return 0, nil, err
	}
	defer func() {
		if cerr := src.Close(); err == nil {
			err = cerr
		}
	}()
	if d, ok := src.(*storage.Durable); ok {
		replayed, _ = d.Recovered()
	}
	ids := identity(logical) // logical id -> the old layout's block, -1 unmapped
	if old.Versioned {
		if ids, err = format1Table(src, logical); err != nil {
			return 0, nil, err
		}
	}
	dst, err := assemble(stackSpec{meta: up, path: tmp, create: true, plan: plan})
	if err != nil {
		return 0, nil, err
	}
	bad, err := copyBlocks(src, dst.versioned, ids)
	if err != nil {
		_ = dst.Close() // the copy error is the one to report
		return 0, nil, err
	}
	if err := dst.Close(); err != nil {
		return 0, nil, err
	}
	if len(bad) > 0 {
		info, err := readVersionedInfo(stackSpec{meta: up, path: tmp}, bs, logical)
		if err != nil {
			return 0, nil, err
		}
		frames := make(map[int]int, len(bad)) // old block -> new block
		for id, old := range bad {
			frames[old] = info.Phys(id)
			rotted = append(rotted, storage.QuarantineRecord{Block: info.Phys(id), Reason: fmt.Sprintf("upgrade: block %d of the old layout does not verify", old)})
		}
		if err := copyFrames(path, tmp, bs, frames); err != nil {
			return 0, nil, err
		}
	}
	return replayed, rotted, removeAll(storage.WalPath(tmp), metaPath(tmp))
}

// copyBlocks writes every logical block ids maps, read from src, into the
// building epoch of dst, 256 blocks at a time, and flips it. A block whose
// frame fails verification is written as zeros, and returned: logical id ->
// its block in src.
func copyBlocks(src storage.BlockStore, dst *storage.Versioned, ids []int) (bad map[int]int, err error) {
	var from, to []int
	for id, p := range ids {
		if p >= 0 {
			from, to = append(from, p), append(to, id)
		}
	}
	bufs := storage.SliceFrames(make([]float64, 256*src.BlockSize()), 256, src.BlockSize())
	for lo := 0; lo < len(from); lo += len(bufs) {
		n := min(len(bufs), len(from)-lo)
		if err := storage.ReadBlocksOf(src, from[lo:lo+n], bufs[:n]); storage.IsCorruption(err) {
			for i, buf := range bufs[:n] {
				if err := src.ReadBlock(from[lo+i], buf); storage.IsCorruption(err) {
					storage.ZeroFill(buf)
					if bad == nil {
						bad = make(map[int]int)
					}
					bad[to[lo+i]] = from[lo+i]
				} else if err != nil {
					return nil, err
				}
			}
		} else if err != nil {
			return nil, err
		}
		if err := storage.WriteBlocksOf(dst, to[lo:lo+n], bufs[:n]); err != nil {
			return nil, err
		}
	}
	return bad, dst.Commit()
}

// format1Table decodes a format-1 store's remap table from src: a
// superblock of five values (magic, version 1, epoch, logical, pages) at
// block 0, then one table value per logical block, block after block,
// holding its physical id + 1 (0: unmapped). It returns the physical block
// of every logical one, -1 where unmapped.
func format1Table(src storage.BlockStore, logical int) ([]int, error) {
	const magic, fields = 0x5353_4550_4f43_4831, 5 // "SSEPOCH1"
	bs := src.BlockSize()
	hdr, pages := (fields+bs-1)/bs, (logical+bs-1)/bs
	vals := make([]float64, (hdr+pages)*bs)
	if err := storage.ReadBlocksOf(src, identity(hdr+pages), storage.SliceFrames(vals, hdr+pages, bs)); err != nil {
		return nil, err
	}
	word := func(i int) uint64 { return math.Float64bits(vals[i]) }
	if word(0) != magic || word(1) != 1 || word(3) != uint64(logical) || word(4) != uint64(pages) {
		return nil, fmt.Errorf("format-1 superblock (magic %#x, version %d, logical %d, pages %d) does not describe %d logical blocks: %w",
			word(0), word(1), word(3), word(4), logical, storage.ErrCorruption)
	}
	ids := make([]int, logical)
	for i := range ids {
		raw := word(hdr*bs + i)
		ids[i] = int(raw) - 1
		if raw != 0 && (raw-1 < uint64(hdr+pages) || raw-1 > math.MaxUint32) {
			return nil, fmt.Errorf("format-1 table maps logical %d to physical %d, outside the data area: %w", i, raw-1, storage.ErrCorruption)
		}
	}
	return ids, nil
}

// identity returns the ids 0..n-1.
func identity(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// syncDir makes a rename in dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
