package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/shiftsplit/shiftsplit"
	"github.com/shiftsplit/shiftsplit/internal/bitutil"
	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
)

var (
	forms     = [2]shiftsplit.Form{shiftsplit.Standard, shiftsplit.NonStandard}
	formNames = [2]string{"std", "nonstd"}
)

// numBlocks is the block count of a served store, needed before it is
// opened because the serve cache is sized from it.
func numBlocks(form int, sz size) int {
	n := bitutil.Log2(sz.Edge)
	if form == 0 {
		return tile.NewStandard([]int{n, n}, tileBits).NumBlocks()
	}
	return tile.NewNonStandard(n, 2, tileBits).NumBlocks()
}

func cacheBlocks(sp spec, form int, sz size) int {
	if sp.ColdCache {
		return numBlocks(form, sz) / 16
	}
	return 2 * numBlocks(form, sz)
}

// setup is one built and opened pair of served stores: a Standard store on
// the pread base and a NonStandard store on the mapped base, both durable
// and versioned, so both forms and both bases execute in every run.
type setup struct {
	dir    string
	src    *ndarray.Array
	paths  [2]string
	stores [2]*shiftsplit.Store
	// transformIOs are the block I/Os of the two chunked transforms, the
	// paper's Result 1 and 2 read off the real build.
	transformIOs [2]shiftsplit.IOStats
	buildS       float64 // dataset + both builds
	openWarmS    float64 // both opens + pre-warm
}

func (s *setup) totalS() float64 { return s.buildS + s.openWarmS }

func (s *setup) close() error {
	var first error
	for _, st := range s.stores {
		if st != nil {
			if err := st.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	if err := os.RemoveAll(s.dir); err != nil && first == nil {
		first = err
	}
	return first
}

// newSetup generates the dataset, builds both stores under dir, reopens
// them for serving with the workload's cache size and pre-warms the caches
// with a full ReadTransform. tr, when non-nil, slides the timing device
// under both stores.
func newSetup(dir string, sp spec, sz size, seed int64, tr *tracer) (*setup, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &setup{dir: dir}
	begin := time.Now()
	s.src = dataset.Dense([]int{sz.Edge, sz.Edge}, seed)
	for f, form := range forms {
		s.paths[f] = filepath.Join(dir, formNames[f]+".wav")
		st, err := shiftsplit.CreateStore(shiftsplit.StoreOptions{
			Shape: []int{sz.Edge, sz.Edge}, Form: form, TileBits: tileBits, Path: s.paths[f],
			Durable: true, Versioned: true, Mapped: f == 1,
		})
		if err != nil {
			return nil, fmt.Errorf("create %s store: %w", formNames[f], err)
		}
		if err := st.TransformChunked(s.src, sz.ChunkBits); err != nil {
			_ = st.Close() // the transform error is the one to report
			return nil, fmt.Errorf("transform %s store: %w", formNames[f], err)
		}
		s.transformIOs[f] = st.Stats()
		if err := st.Sync(); err != nil {
			_ = st.Close() // the sync error is the one to report
			return nil, fmt.Errorf("sync %s store: %w", formNames[f], err)
		}
		if err := st.Close(); err != nil {
			return nil, fmt.Errorf("close %s store: %w", formNames[f], err)
		}
	}
	s.buildS = time.Since(begin).Seconds()

	begin = time.Now()
	var wrap func(storage.BlockStore) storage.BlockStore
	if tr != nil {
		wrap = func(bs storage.BlockStore) storage.BlockStore { return wrapTimed(bs, tr) }
	}
	for f := range forms {
		st, err := shiftsplit.OpenServingOpts(s.paths[f], shiftsplit.ServeOptions{CacheBlocks: cacheBlocks(sp, f, sz), BaseWrap: wrap})
		if err != nil {
			_ = s.close() // the open error is the one to report
			return nil, fmt.Errorf("open %s store: %w", formNames[f], err)
		}
		s.stores[f] = st
		if sp.SettleEpoch {
			if err := settle(st); err != nil {
				_ = s.close() // the settle error is the one to report
				return nil, fmt.Errorf("settle %s store: %w", formNames[f], err)
			}
		}
		if _, err := st.ReadTransform(); err != nil {
			_ = s.close() // the read error is the one to report
			return nil, fmt.Errorf("pre-warm %s store: %w", formNames[f], err)
		}
	}
	s.openWarmS = time.Since(begin).Seconds()
	return s, nil
}

// settle rewrites every block once (Scale by 1 is exact) and flips, so
// the store enters the run the way a long-maintained one looks: all live
// blocks in the upper half of the file and a free list of one whole
// generation below them.
//
// It is a workaround. storage.Versioned lowers its high-water mark when
// the topmost physical blocks are freed, and later re-allocates those ids
// by growing the mark again, without the OnReuse hook that drops the serve
// cache's entry for a reused id. A query after such a flip is then
// answered from the stale cached block: silently wrong (about 3 answers in
// 7 500 on this workload before the workaround). With a generation of free
// blocks every allocation comes off the free list, which does call the
// hook. Remove this once the epoch layer is fixed.
func settle(st *shiftsplit.Store) error {
	if err := st.Scale(1); err != nil {
		return err
	}
	return st.Flush()
}

// storedBytes sums the on-disk footprint of both stores: data file,
// journal sidecar and metadata sidecar.
func (s *setup) storedBytes() (int64, error) {
	var total int64
	for _, p := range s.paths {
		for _, name := range []string{p, storage.WalPath(p), p + ".meta.json"} {
			fi, err := os.Stat(name)
			if err != nil {
				return 0, err
			}
			total += fi.Size()
		}
	}
	return total, nil
}

// dirBytes sums the regular files under dir (the ingest generations).
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			total += fi.Size()
		}
		return nil
	})
	return total, err
}
