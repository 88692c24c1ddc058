package shiftsplit

import (
	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// This file is the storage-stack half of the query-serving subsystem (the
// HTTP half lives in internal/server): it opens a store whose read path is
// built for many concurrent queriers instead of one maintenance engine.

// CacheStats reports the serve cache's counters.
type CacheStats struct {
	Hits      int64   `json:"hits"`      // reads served from a resident block
	Misses    int64   `json:"misses"`    // reads that found no resident block
	Loads     int64   `json:"loads"`     // reads issued to the device (singleflight coalesces misses)
	Evictions int64   `json:"evictions"` // blocks discarded to make room
	Inflight  int64   `json:"inflight"`  // loads currently outstanding
	Resident  int64   `json:"resident"`  // blocks currently held
	Lent      int64   `json:"lent"`      // slots pinned now by queries reading them in place
	HitRate   float64 `json:"hit_rate"`  // Hits / (Hits + Misses)
}

// ServeOptions configures OpenServingOpts beyond the cache knobs.
type ServeOptions struct {
	// CacheBlocks/CacheShards size the sharded LRU block cache (see
	// OpenServing).
	CacheBlocks int
	CacheShards int
	// Breaker, when non-nil, interposes a circuit breaker between the
	// cache and the device: sustained backend failure trips it and the
	// store serves cache hits only (misses fail fast with
	// storage.ErrUnavailable) until a half-open probe finds the backend
	// healthy again.
	Breaker *storage.BreakerOptions
	// BaseWrap, when non-nil, wraps the raw block device below the
	// checksum layer — the chaos harness's fault-injection seam (see
	// StoreOptions.BaseWrap). On a store whose sidecar says flat, the
	// open's read of the superblock slots goes through it too.
	BaseWrap func(storage.BlockStore) storage.BlockStore
}

// OpenServing reopens a file-backed store for the concurrent query-serving
// path: reads are fronted by a sharded LRU block cache of cacheBlocks
// blocks spread over cacheShards independently locked shards (0 picks a
// default), concurrent misses on the same block are coalesced into one
// disk read, and the whole read path is safe under any number of querying
// goroutines. A durable store's writes are additionally serialized below
// the epoch layer, so the checksum layer never sees interleaved calls.
//
// The returned store is meant to be read-only; writes through it are
// permitted and serialize as on any other store (see Store for what
// queries running beside them see).
func OpenServing(path string, cacheBlocks, cacheShards int) (*Store, error) {
	return OpenServingOpts(path, ServeOptions{CacheBlocks: cacheBlocks, CacheShards: cacheShards})
}

// OpenServingOpts is OpenServing with the full robustness stack: Degraded
// above the cache so quarantined blocks are served as (uncached) flagged
// zeros, the breaker below it so cache hits keep serving while the circuit
// is open, and on a versioned durable store a lock-free committed-read leg
// so N readers progress at full speed while a maintenance batch builds and
// flips the next epoch. assemble (stack.go) has the layer order.
//
// Like OpenStore it upgrades a store in an older layout first, and a file
// has one open handle at a time.
func OpenServingOpts(path string, sopts ServeOptions) (*Store, error) {
	return open(stackSpec{path: path, wrap: sopts.BaseWrap, serve: &sopts})
}

// CacheStats returns the serve cache's counters; ok is false when the store
// has no serve cache.
func (s *Store) CacheStats() (stats CacheStats, ok bool) {
	if s.cache == nil {
		return CacheStats{}, false
	}
	cs := s.cache.Stats()
	return CacheStats{
		Hits:      cs.Hits,
		Misses:    cs.Misses,
		Loads:     cs.Loads,
		Evictions: cs.Evictions,
		Inflight:  cs.Inflight,
		Resident:  cs.Resident,
		Lent:      cs.Lent,
		HitRate:   cs.HitRate(),
	}, true
}

// InvalidateCache empties the serve cache (a no-op without one); the next
// reads reload from the device. The cold-start benchmarks use it.
func (s *Store) InvalidateCache() {
	if s.cache != nil {
		s.cache.Invalidate()
	}
}
