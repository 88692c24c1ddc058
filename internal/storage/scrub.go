package storage

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// ScrubberOptions configures a Scrubber. The zero value selects the
// defaults noted on each field.
type ScrubberOptions struct {
	// BatchSize is how many blocks one verification step covers (default
	// 32). Each step is one vectored read through the batch path, so the
	// batch size bounds how long the scrubber holds the store's lock.
	BatchSize int
	// RateBlocksPerSec caps scrub I/O so a background pass cannot starve
	// foreground queries: after each batch the scrubber sleeps long enough
	// to keep the average at or under the cap (0 = unlimited).
	RateBlocksPerSec int
	// Sleep is the delay function (default time.Sleep; tests inject a
	// recorder).
	Sleep func(time.Duration)
	// Live, when non-nil, reports the ids that hold state something reads;
	// the pass verifies only those and releases the others from quarantine.
	// A versioned store passes Versioned.Committed: its free space may hold
	// frames a crash tore, which nothing reads and the next allocation
	// overwrites.
	Live func(id int) bool
}

// ScrubStats is a snapshot of scrubber progress.
type ScrubStats struct {
	Passes  int64 // full walks of the block space completed
	Scanned int64 // blocks verified (across all passes)
	Corrupt int64 // blocks found corrupt and quarantined
	Healed  int64 // quarantined blocks that verified clean and were released
}

// Scrubber walks the block space in the background, verifying frame
// integrity through the batch-read path at a bounded I/O rate, and keeps
// the quarantine registry in sync with the medium: corrupt blocks are
// quarantined, quarantined blocks that verify clean again (repaired or
// rewritten) are released.
type Scrubber struct {
	bs        BlockStore
	numBlocks func() int
	q         *Quarantine
	opts      ScrubberOptions

	passes  atomic.Int64
	scanned atomic.Int64
	corrupt atomic.Int64
	healed  atomic.Int64
}

// NewScrubber builds a scrubber over bs (which should be the locked layer
// of a shared stack — verification reuses per-store scratch buffers).
// numBlocks reports the current extent of the block space and is consulted
// at the start of every pass; q receives the verdicts.
func NewScrubber(bs BlockStore, numBlocks func() int, q *Quarantine, opts ScrubberOptions) (*Scrubber, error) {
	if bs == nil || numBlocks == nil || q == nil {
		return nil, fmt.Errorf("storage: scrubber needs a store, a block-count source, and a quarantine")
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 32
	}
	if opts.Sleep == nil {
		opts.Sleep = time.Sleep
	}
	return &Scrubber{bs: bs, numBlocks: numBlocks, q: q, opts: opts}, nil
}

// Stats returns the progress counters.
func (s *Scrubber) Stats() ScrubStats {
	return ScrubStats{
		Passes:  s.passes.Load(),
		Scanned: s.scanned.Load(),
		Corrupt: s.corrupt.Load(),
		Healed:  s.healed.Load(),
	}
}

// RunOnce walks the whole block space once, returning how many blocks are
// quarantined after the pass. The context is checked between batches; a
// canceled pass returns ctx.Err() without counting as a completed pass.
func (s *Scrubber) RunOnce(ctx context.Context) (quarantined int, err error) {
	total := s.numBlocks()
	ids := make([]int, 0, s.opts.BatchSize)
	for start := 0; start < total; start += s.opts.BatchSize {
		if ctx != nil && ctx.Err() != nil {
			return s.q.Len(), ctx.Err()
		}
		end := start + s.opts.BatchSize
		if end > total {
			end = total
		}
		ids = ids[:0]
		for id := start; id < end; id++ {
			if s.opts.Live == nil || s.opts.Live(id) {
				ids = append(ids, id)
			} else if s.q.Remove(id) {
				s.healed.Add(1)
			}
		}
		batchStart := time.Now()
		corrupt, err := VerifyBlocksOf(s.bs, ids)
		if err != nil {
			return s.q.Len(), fmt.Errorf("storage: scrub batch %d..%d: %w", start, end-1, err)
		}
		s.scanned.Add(int64(len(ids)))
		bad := make(map[int]bool, len(corrupt))
		for _, id := range corrupt {
			bad[id] = true
			if s.q.Add(id, "scrub: frame failed verification") {
				s.corrupt.Add(1)
			}
		}
		for _, id := range ids {
			if !bad[id] && s.q.Remove(id) {
				s.healed.Add(1)
			}
		}
		s.throttle(len(ids), time.Since(batchStart))
	}
	s.passes.Add(1)
	return s.q.Len(), nil
}

// throttle sleeps off the difference between the time a batch took and the
// time it should take under the rate cap.
func (s *Scrubber) throttle(blocks int, took time.Duration) {
	if s.opts.RateBlocksPerSec <= 0 || blocks == 0 {
		return
	}
	want := time.Duration(float64(blocks) / float64(s.opts.RateBlocksPerSec) * float64(time.Second))
	if want > took {
		s.opts.Sleep(want - took)
	}
}

// Run scrubs continuously: one pass, then an interval wait, until the
// context is canceled. A pass that fails (device error) is logged into the
// returned error only on cancellation; transient pass failures wait out
// the interval and try again — scrubbing is best-effort by design.
func (s *Scrubber) Run(ctx context.Context, interval time.Duration) error {
	if interval <= 0 {
		interval = time.Second
	}
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
		}
		if _, err := s.RunOnce(ctx); err != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		timer.Reset(interval)
	}
}
