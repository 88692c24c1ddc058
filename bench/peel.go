package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"github.com/shiftsplit/shiftsplit/internal/bitutil"
	"github.com/shiftsplit/shiftsplit/internal/cache"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
)

// The stack peel drives one seeded batched read through the serving read
// stack built one public constructor at a time, in the order
// OpenServingOpts assembles it, and reports each layer as the delta over
// the stack below it. It answers "what does this wrapper cost per block",
// which is what deciding to keep, merge or delete a wrapper needs.

const (
	peelBlocks = 4096 // blocks per batched read (fewer when the tiling has fewer)
	peelReps   = 7    // timed repetitions per layer; the fastest counts
)

// layerCost is one stack's absolute cost per block.
type layerCost struct{ ns, allocs float64 }

// timeReads runs read once untimed, then peelReps times, and returns the
// fastest repetition's ns per block and the mean allocations per block.
func timeReads(blocks int, read func() error) (layerCost, error) {
	if err := read(); err != nil {
		return layerCost{}, err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	best, err := bestOf(peelReps, read)
	if err != nil {
		return layerCost{}, err
	}
	runtime.ReadMemStats(&ms)
	return layerCost{
		ns:     float64(best) / float64(blocks),
		allocs: float64(ms.Mallocs-mallocs) / float64(peelReps*blocks),
	}, nil
}

// stackPeel returns the peel.* metrics. dir is scratch space it removes.
func stackPeel(dir string, seed int64, sz size) (_ map[string]metric, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer func() {
		if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
			err = rmErr
		}
	}()
	n := bitutil.Log2(sz.Edge)
	tiling := tile.NewStandard([]int{n, n}, tileBits)
	logical, bs := tiling.NumBlocks(), tiling.BlockSize()
	blocks := peelBlocks
	if blocks > logical {
		blocks = logical
	}
	rng := rand.New(rand.NewSource(seed + 99))
	all := make([]int, logical)
	data := storage.SliceFrames(make([]float64, logical*bs), logical, bs)
	for i := range all {
		all[i] = i
		for s := range data[i] {
			data[i][s] = rng.NormFloat64()
		}
	}
	// The batch: a seeded subset of the logical ids, ascending, the shape
	// the engines' sorted batch reads have.
	ids := append([]int(nil), rng.Perm(logical)[:blocks]...)
	sort.Ints(ids)

	out := map[string]metric{}
	put := func(name string, c layerCost) {
		out["peel."+name+".ns_per_block"] = metric{c.ns, "ns"}
		out["peel."+name+".allocs_per_block"] = metric{c.allocs, "count"}
	}
	delta := func(top, below layerCost) layerCost { return layerCost{top.ns - below.ns, top.allocs - below.allocs} }

	// Write leg, fastest of five full rewrites each: the raw framed file,
	// the journaled Durable over it, and the copy-on-write epoch layer over
	// that.
	writeNs := func(write func() error) (float64, error) {
		best, err := bestOf(5, write)
		return float64(best) / float64(logical), err
	}
	raw, err := storage.NewFileStore(filepath.Join(dir, "raw.dat"), bs+storage.ChecksumOverhead)
	if err != nil {
		return nil, err
	}
	frames := storage.SliceFrames(make([]float64, logical*(bs+storage.ChecksumOverhead)), logical, bs+storage.ChecksumOverhead)
	rawNs, err := writeNs(func() error {
		if err := raw.WriteBlocks(all, frames); err != nil {
			return err
		}
		return raw.Sync()
	})
	if cerr := raw.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("peel: raw write leg: %w", err)
	}
	plain, err := storage.CreateDurable(filepath.Join(dir, "plain.dat"), bs, nil)
	if err != nil {
		return nil, err
	}
	durableNs, err := writeNs(func() error {
		if err := plain.WriteBlocks(all, data); err != nil {
			return err
		}
		return plain.Commit()
	})
	if cerr := plain.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("peel: journaled write leg: %w", err)
	}
	path := filepath.Join(dir, "peel.dat")
	build, err := storage.CreateDurable(path, bs, nil)
	if err != nil {
		return nil, err
	}
	buildV, err := storage.NewVersioned(build, logical)
	if err != nil {
		_ = build.Close() // the constructor error is the one to report
		return nil, err
	}
	cowNs, err := writeNs(func() error {
		if err := buildV.WriteBlocks(all, data); err != nil {
			return err
		}
		return buildV.Commit()
	})
	if cerr := buildV.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("peel: versioned write leg: %w", err)
	}
	out["peel.journal_commit.ns_per_block"] = metric{durableNs - rawNs, "ns"}
	out["peel.versioned_cow.ns_per_block"] = metric{cowNs - durableNs, "ns"}

	// Read leg. Below the epoch layer ids are physical: the same batch
	// shifted onto the topmost written frames of the file.
	file, err := storage.OpenFileStore(path, bs+storage.ChecksumOverhead)
	if err != nil {
		return nil, err
	}
	extent, err := file.NumBlocks()
	if err != nil {
		_ = file.Close() // the stat error is the one to report
		return nil, err
	}
	phys := make([]int, len(ids))
	for i, id := range ids {
		phys[i] = extent - logical + id
	}
	frameBufs := storage.SliceFrames(make([]float64, blocks*(bs+storage.ChecksumOverhead)), blocks, bs+storage.ChecksumOverhead)
	bufs := storage.SliceFrames(make([]float64, blocks*bs), blocks, bs)
	fileCost, err := timeReads(blocks, func() error { return file.ReadBlocks(phys, frameBufs) })
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("peel: file: %w", err)
	}
	put("file", fileCost)

	mapped, err := storage.OpenMappedStore(path, bs+storage.ChecksumOverhead)
	if err != nil {
		return nil, err
	}
	mappedCost, err := timeReads(blocks, func() error { return mapped.ReadBlocks(phys, frameBufs) })
	if cerr := mapped.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("peel: mapped: %w", err)
	}
	put("mapped", mappedCost)

	// From here up, the stack OpenServingOpts builds over a durable,
	// versioned, pread-based store.
	durable, err := storage.OpenDurable(path, bs, nil)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := durable.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	reader, err := durable.ReadOnlyView()
	if err != nil {
		return nil, err
	}
	split, err := storage.NewSplitRW(reader, storage.NewLocked(durable))
	if err != nil {
		return nil, err
	}
	counting := storage.NewCounting(split)
	breaker := storage.NewBreaker(counting, storage.BreakerOptions{})
	// A cache far smaller than the batch misses on (almost) every block; one
	// that holds the whole file hits on every block once warm.
	missCache, err := cache.New(breaker, blocks/64+1, 0)
	if err != nil {
		return nil, err
	}
	hitCache, err := cache.New(breaker, 2*extent, 0)
	if err != nil {
		return nil, err
	}
	degraded, err := storage.NewDegraded(hitCache, storage.NewQuarantine())
	if err != nil {
		return nil, err
	}
	versioned, err := storage.NewVersionedSplit(counting, degraded, logical)
	if err != nil {
		return nil, err
	}
	snap := versioned.Acquire()
	defer snap.Release()
	tiles, err := tile.NewStore(snap, tiling)
	if err != nil {
		return nil, err
	}

	var checksumCost, countingCost, breakerCost, hitCost, degradedCost, versionedCost layerCost
	layers := []struct {
		name  string
		read  func() error
		below *layerCost // nil: reported as measured
		cost  *layerCost // where the stack's absolute cost goes, for the layer above
	}{
		{"checksum", func() error { return reader.ReadBlocks(phys, bufs) }, &fileCost, &checksumCost},
		{"splitrw_counting", func() error { return counting.ReadBlocks(phys, bufs) }, &checksumCost, &countingCost},
		{"breaker", func() error { return breaker.ReadBlocks(phys, bufs) }, &countingCost, &breakerCost},
		{"cache_miss", func() error { return missCache.ReadBlocks(phys, bufs) }, &breakerCost, new(layerCost)},
		// A hit ends at the cache, so there is no stack below to subtract.
		{"cache_hit", func() error { return hitCache.ReadBlocks(phys, bufs) }, nil, &hitCost},
		{"degraded", func() error { return degraded.ReadBlocks(phys, bufs) }, &hitCost, &degradedCost},
		// The snapshot resolves the logical batch to whichever physical
		// blocks the last rewrite left it on; all of them are cache hits.
		{"versioned", func() error { return snap.ReadBlocks(ids, bufs) }, &degradedCost, &versionedCost},
		{"tile", func() error { _, err := tiles.ReadTiles(ids); return err }, &versionedCost, new(layerCost)},
	}
	for _, l := range layers {
		cost, err := timeReads(blocks, l.read)
		if err != nil {
			return nil, fmt.Errorf("peel: %s: %w", l.name, err)
		}
		*l.cost = cost
		if l.below != nil {
			cost = delta(cost, *l.below)
		}
		put(l.name, cost)
	}
	return out, nil
}
