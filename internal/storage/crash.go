package storage

import (
	"errors"
	"math/rand"
	"sort"
)

// ErrCrashed is returned by every operation on a CrashStore after its plan
// has fired: the simulated machine lost power and the process is dead.
var ErrCrashed = errors.New("storage: simulated power failure")

// CrashPlan schedules a simulated power cut at the n-th physical mutation
// (write, sync, or truncate) across every CrashStore sharing the plan. A
// crash campaign arms one plan per trial and sweeps the index over the
// whole range a maintenance batch produces.
type CrashPlan struct {
	rng     *rand.Rand
	failAt  int64
	fate    CrashFate
	ops     int64
	crashed bool
}

// CrashFate is what the power cut does to each write it catches in flight:
// the write being issued, or every write an interrupted Sync was flushing.
type CrashFate int

const (
	FateRandom  CrashFate = iota // drop, tear or persist, by the plan's seeded RNG
	FateDrop                     // the write is lost
	FateTear                     // a prefix of the write persists
	FatePersist                  // the write persists whole
)

// NewCrashPlan creates a disarmed plan; the seed drives the tear/drop
// choices made at the crash point.
func NewCrashPlan(seed int64) *CrashPlan {
	return &CrashPlan{rng: rand.New(rand.NewSource(seed))}
}

// ArmAt schedules the power cut at the n-th mutation from the start of
// counting (1-based); n <= 0 disarms.
func (p *CrashPlan) ArmAt(n int64) { p.failAt = n }

// ArmAtFate is ArmAt with the fate of the writes the cut catches chosen
// rather than drawn, so a campaign can visit every outcome of each index.
func (p *CrashPlan) ArmAtFate(n int64, f CrashFate) { p.failAt, p.fate = n, f }

// pick draws the fate of one caught write: 0 drop, 1 tear, 2 persist.
func (p *CrashPlan) pick() int {
	if p.fate != FateRandom {
		return int(p.fate) - 1
	}
	return p.rng.Intn(3)
}

// Ops returns how many mutations have been counted so far; a disarmed dry
// run uses it to size the campaign sweep.
func (p *CrashPlan) Ops() int64 { return p.ops }

// step counts one mutation and reports whether the power cut fires on it.
func (p *CrashPlan) step() bool {
	if p.crashed {
		return false
	}
	p.ops++
	if p.failAt > 0 && p.ops == p.failAt {
		p.crashed = true
		return true
	}
	return false
}

// CrashStore wraps the durable medium under a store stack and simulates a
// power cut at an arbitrary mutation. It models a volatile write cache the
// way a real OS does: WriteBlock lands in memory and reaches the medium
// only on Sync. At the crash point the in-flight write is dropped, torn
// (only a prefix of its coefficients reaches the medium), or fully
// persisted — chosen by the plan's seeded RNG — every unsynced write is
// lost, and all subsequent operations fail with ErrCrashed.
//
// Wrap the data and journal FileStores of one Durable in two CrashStores
// sharing a plan to exercise the full commit protocol. CrashStore does not
// offer FrameViewer: its volatile write cache shadows the medium, so
// zero-copy views would read around unsynced state.
type CrashStore struct {
	inner BlockStore
	plan  *CrashPlan
	cache map[int][]float64 // written but not yet synced
}

// NewCrashStore wraps inner under plan.
func NewCrashStore(inner BlockStore, plan *CrashPlan) *CrashStore {
	return &CrashStore{inner: inner, plan: plan, cache: make(map[int][]float64)}
}

// BlockSize returns the wrapped block size.
func (c *CrashStore) BlockSize() int { return c.inner.BlockSize() }

// ReadBlock reads through the volatile cache.
func (c *CrashStore) ReadBlock(id int, buf []float64) error {
	if c.plan.crashed {
		return ErrCrashed
	}
	if data, ok := c.cache[id]; ok {
		copy(buf, data)
		return nil
	}
	return c.inner.ReadBlock(id, buf)
}

// ReadBlocks implements BatchReader: cached (unsynced) writes are served
// from the overlay and the remainder is fetched from the medium as one
// vectored read. Reads are not mutations, so the crash plan's op count is
// untouched.
func (c *CrashStore) ReadBlocks(ids []int, bufs [][]float64) error {
	if c.plan.crashed {
		return ErrCrashed
	}
	var missIDs []int
	var missBufs [][]float64
	for i, id := range ids {
		if data, ok := c.cache[id]; ok {
			copy(bufs[i], data)
		} else {
			missIDs = append(missIDs, id)
			missBufs = append(missBufs, bufs[i])
		}
	}
	if len(missIDs) == 0 {
		return nil
	}
	return ReadBlocksOf(c.inner, missIDs, missBufs)
}

// persistTorn writes a block to the medium with only a random-length
// prefix of the new coefficients; the suffix keeps the medium's old
// contents, modeling a write interrupted mid-sector.
func (c *CrashStore) persistTorn(id int, data []float64) {
	old := make([]float64, c.inner.BlockSize())
	_ = c.inner.ReadBlock(id, old)     // best effort: the machine is dying anyway
	keep := c.plan.rng.Intn(len(data)) // 0..len-1 new coefficients persist
	copy(old[:keep], data[:keep])
	_ = c.inner.WriteBlock(id, old)
}

// WriteBlock caches the block, or fires the power cut.
func (c *CrashStore) WriteBlock(id int, data []float64) error {
	if c.plan.crashed {
		return ErrCrashed
	}
	if c.plan.step() {
		switch c.plan.pick() {
		case 0: // dropped entirely
		case 1: // torn
			c.persistTorn(id, data)
		case 2: // made it to the medium intact
			_ = c.inner.WriteBlock(id, data)
		}
		c.cache = make(map[int][]float64) // unsynced writes are gone
		return ErrCrashed
	}
	dst, ok := c.cache[id]
	if !ok {
		dst = make([]float64, len(data))
		c.cache[id] = dst
	}
	copy(dst, data)
	return nil
}

// WriteBlocks implements BatchWriter by pushing each block through the
// same per-mutation plan accounting as WriteBlock: the crash campaign's
// op indices — and therefore its sweep — are identical whether the stack
// above batches or loops. Writes land in the volatile cache, so there is
// no inner batch to issue before a Sync.
func (c *CrashStore) WriteBlocks(ids []int, data [][]float64) error {
	for i, id := range ids {
		if err := c.WriteBlock(id, data[i]); err != nil {
			return err
		}
	}
	return nil
}

// Sync flushes the volatile cache to the medium, or fires the power cut
// mid-fsync, persisting a random subset of the cached writes.
func (c *CrashStore) Sync() error {
	if c.plan.crashed {
		return ErrCrashed
	}
	ids := make([]int, 0, len(c.cache))
	for id := range c.cache {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	if c.plan.step() {
		for _, id := range ids {
			switch c.plan.pick() {
			case 0: // lost
			case 1:
				c.persistTorn(id, c.cache[id])
			case 2:
				_ = c.inner.WriteBlock(id, c.cache[id])
			}
		}
		c.cache = make(map[int][]float64)
		return ErrCrashed
	}
	for _, id := range ids {
		if err := c.inner.WriteBlock(id, c.cache[id]); err != nil {
			return err
		}
	}
	c.cache = make(map[int][]float64)
	return SyncIfAble(c.inner)
}

// Truncate discards the cache and truncates the medium. The truncation
// itself is atomic (a metadata operation on journaling filesystems): at
// the crash point it either happened or it did not.
func (c *CrashStore) Truncate() error {
	if c.plan.crashed {
		return ErrCrashed
	}
	if c.plan.step() {
		if c.plan.rng.Intn(2) == 0 {
			c.cache = make(map[int][]float64)
			_ = TruncateIfAble(c.inner)
		}
		c.cache = make(map[int][]float64)
		return ErrCrashed
	}
	c.cache = make(map[int][]float64)
	return TruncateIfAble(c.inner)
}

// Close closes the medium. A graceful close flushes the cache first; after
// a crash the cache is already gone.
func (c *CrashStore) Close() error {
	if !c.plan.crashed {
		for id, data := range c.cache {
			if err := c.inner.WriteBlock(id, data); err != nil {
				return err
			}
		}
		c.cache = nil
	}
	return c.inner.Close()
}
