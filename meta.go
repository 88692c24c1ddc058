package shiftsplit

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"github.com/shiftsplit/shiftsplit/internal/bitutil"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
)

// storeMeta is the JSON sidecar written next to file-backed stores so they
// can be reopened with OpenStore.
type storeMeta struct {
	Shape    []int  `json:"shape"`
	Form     string `json:"form"`
	TileBits int    `json:"tile_bits"`
	// Materialized records that every block's scaling slots are valid.
	// Every maintenance path keeps them so; it is false only on stores
	// last maintained by a binary that did not, until a whole-domain write.
	Materialized bool `json:"materialized"`
	Durable      bool `json:"durable,omitempty"`
	// Mapped records that the store was created with mmap-backed reads,
	// so OpenStore reopens it the same way (the on-disk layout itself is
	// identical either way).
	Mapped bool `json:"mapped,omitempty"`
	// Versioned records the MVCC epoch layout (superblock + remap table
	// ahead of the data blocks); a versioned file cannot be opened flat.
	Versioned bool `json:"versioned,omitempty"`
	// Quarantined records the blocks known to be corrupt on the medium, so
	// a reopened store still refuses to trust them (and keeps serving
	// degraded) until they are repaired or rewritten.
	Quarantined []storage.QuarantineRecord `json:"quarantined,omitempty"`
}

func metaPath(path string) string { return path + ".meta.json" }

// saveMeta writes the sidecar atomically: the JSON is written to a
// temporary file, fsynced, and renamed over the old sidecar, so a crash
// mid-save leaves either the old or the new metadata — never a torn file.
// The metaMu serializes writers: the background scrubber persists
// quarantine transitions concurrently with a whole-domain write persisting
// that the slots are valid.
func (s *Store) saveMeta() error {
	if s.opts.Path == "" {
		return nil
	}
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	m := storeMeta{
		Shape:        s.opts.Shape,
		Form:         s.opts.Form.String(),
		TileBits:     s.opts.TileBits,
		Materialized: s.slotsOnMedia,
		Durable:      s.opts.Durable,
		Mapped:       s.opts.Mapped,
		Versioned:    s.opts.Versioned,
	}
	if s.quarantine != nil {
		m.Quarantined = s.quarantine.Snapshot()
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(metaPath(s.opts.Path), data, 0o644)
}

// writeFileAtomic replaces path with data via a fsynced temporary file and
// an atomic rename. The temporary name is unique per call: two store
// handles on the same path (a serving store's scrubber and a separate
// repair handle) may persist metadata concurrently, and a shared temp name
// would let one writer rename the other's file out from under it.
func writeFileAtomic(path string, data []byte, perm os.FileMode) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := f.Chmod(perm); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// readMeta loads and validates the sidecar of a file-backed store.
func readMeta(path string) (storeMeta, error) {
	var m storeMeta
	data, err := os.ReadFile(metaPath(path))
	if err != nil {
		return m, fmt.Errorf("shiftsplit: read store metadata: %w", err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("shiftsplit: parse store metadata: %w", err)
	}
	return m, nil
}

// tilingForMeta rebuilds the tiling a sidecar describes.
func tilingForMeta(m storeMeta) (tile.Tiling, Form, error) {
	var form Form
	switch m.Form {
	case Standard.String():
		form = Standard
	case NonStandard.String():
		form = NonStandard
	default:
		return nil, 0, fmt.Errorf("shiftsplit: unknown form %q in metadata", m.Form)
	}
	ns := make([]int, len(m.Shape))
	for i, e := range m.Shape {
		if !bitutil.IsPow2(e) {
			return nil, 0, fmt.Errorf("shiftsplit: bad extent %d in metadata", e)
		}
		ns[i] = bitutil.Log2(e)
	}
	if len(ns) == 0 {
		return nil, 0, fmt.Errorf("shiftsplit: empty shape in metadata")
	}
	if form == Standard {
		return tile.NewStandard(ns, m.TileBits), form, nil
	}
	return tile.NewNonStandard(ns[0], len(ns), m.TileBits), form, nil
}

// OpenStore reopens a file-backed store previously created with CreateStore
// (its metadata sidecar must be present). Opening a durable store replays
// or discards any maintenance batch that was interrupted by a crash; use
// Recovered to learn whether a roll-forward happened.
func OpenStore(path string) (*Store, error) {
	m, err := readMeta(path)
	if err != nil {
		return nil, err
	}
	return assemble(stackSpec{meta: m, path: path})
}

// Sync commits again a batch whose commit failed (see Flush) and persists
// metadata (form, shape, slot validity) for file-backed stores; in-memory
// non-durable stores ignore it.
func (s *Store) Sync() error {
	if err := s.Flush(); err != nil {
		return err
	}
	return s.saveMeta()
}
