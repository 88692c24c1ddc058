package shiftsplit

import (
	"context"
	"fmt"
	"time"

	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// This file is the robustness surface of a Store: the quarantine registry
// (which blocks are known corrupt), the online scrubber that keeps it in
// sync with the medium, degraded-serving and breaker telemetry, and repair.

// Health summarizes a store's serving condition for the /healthz endpoint
// and the CLI.
type Health struct {
	// Status is "ok" when every block verifies and the backend is
	// reachable, "degraded" otherwise.
	Status string `json:"status"`
	// Quarantined is the number of blocks currently known corrupt.
	Quarantined int `json:"quarantined"`
	// DegradedReads counts block reads served as zeros because the block
	// was quarantined.
	DegradedReads int64 `json:"degraded_reads"`
	// Breaker is "closed", "open", or "half-open"; empty when the store
	// has no breaker.
	Breaker string `json:"breaker,omitempty"`
}

// attachQuarantine installs the registry (loaded from persisted meta
// records, nil for a fresh store) and hooks every transition to persist
// the sidecar. Persistence is best-effort: a failed save leaves the
// in-memory registry authoritative and the next transition (or Sync)
// retries.
func (s *Store) attachQuarantine(recs []storage.QuarantineRecord) {
	q := storage.NewQuarantine()
	q.Replace(recs)
	s.quarantine = q
	q.OnChange(func([]storage.QuarantineRecord) { _ = s.saveMeta() })
}

// maintenanceGuard refuses incremental (read-modify-write) maintenance
// while any block is quarantined.
func (s *Store) maintenanceGuard() error {
	if s.quarantine != nil && s.quarantine.Len() > 0 {
		return fmt.Errorf("shiftsplit: %d quarantined block(s): %w", s.quarantine.Len(), ErrQuarantined)
	}
	return nil
}

// Quarantined returns the records of blocks currently quarantined, sorted
// by block id.
func (s *Store) Quarantined() []storage.QuarantineRecord {
	if s.quarantine == nil {
		return nil
	}
	return s.quarantine.Snapshot()
}

// DegradedReads returns how many block reads have been served as zeros
// because their block was quarantined (0 on stores without the degraded
// serving layer).
func (s *Store) DegradedReads() int64 {
	if s.degraded == nil {
		return 0
	}
	return s.degraded.DegradedReads()
}

// BreakerStats reports the circuit breaker's state; ok is false when the
// store was opened without one.
func (s *Store) BreakerStats() (state string, trips, rejected int64, ok bool) {
	if s.breaker == nil {
		return "", 0, 0, false
	}
	return s.breaker.State(), s.breaker.Trips(), s.breaker.Rejected(), true
}

// Health reports the store's serving condition: degraded when any block is
// quarantined or the breaker is not closed.
func (s *Store) Health() Health {
	h := Health{Status: "ok"}
	if s.quarantine != nil {
		h.Quarantined = s.quarantine.Len()
	}
	h.DegradedReads = s.DegradedReads()
	if s.breaker != nil {
		h.Breaker = s.breaker.State()
	}
	if h.Quarantined > 0 || (h.Breaker != "" && h.Breaker != "closed") {
		h.Status = "degraded"
	}
	return h
}

// ensureScrubber lazily builds the scrubber over the Counting.
func (s *Store) ensureScrubber(opts storage.ScrubberOptions) (*storage.Scrubber, error) {
	s.scrubMu.Lock()
	defer s.scrubMu.Unlock()
	if s.scrubber != nil {
		return s.scrubber, nil
	}
	// On a versioned store the scrubber walks the physical id space below
	// the epoch layer and verifies what a committed epoch references (the
	// current superblock slot, table pages, data blocks); otherwise
	// physical and logical ids coincide.
	extent := s.tiling.NumBlocks
	if s.versioned != nil {
		extent = s.versioned.PhysExtent
		opts.Live = s.versioned.Committed
	}
	sc, err := storage.NewScrubber(s.counting, extent, s.quarantine, opts)
	if err != nil {
		return nil, err
	}
	s.scrubber = sc
	return sc, nil
}

// ScrubOnce walks the whole block space once, verifying frame integrity
// through the batch-read path below the cache and breaker: corrupt blocks
// are quarantined, quarantined blocks that verify clean are released. It
// returns the number of blocks quarantined after the pass. On serving
// stores the walk shares the device lock with queries; on maintenance
// stores it must not run concurrently with other operations.
func (s *Store) ScrubOnce(ctx context.Context) (quarantined int, err error) {
	sc, err := s.ensureScrubber(storage.ScrubberOptions{})
	if err != nil {
		return 0, err
	}
	return sc.RunOnce(ctx)
}

// ScrubStats returns the background scrubber's counters; ok is false when
// no scrub has ever been configured on this store.
func (s *Store) ScrubStats() (stats storage.ScrubStats, ok bool) {
	s.scrubMu.Lock()
	sc := s.scrubber
	s.scrubMu.Unlock()
	if sc == nil {
		return storage.ScrubStats{}, false
	}
	return sc.Stats(), true
}

// StartScrub launches the background scrubber: one full pass every
// interval, at most rateBlocksPerSec verified blocks per second (0 =
// unlimited). It requires a store whose device layer is safe for
// concurrent use (OpenServing); maintenance stores must scrub with
// ScrubOnce between operations instead. The scrubber's lifetime nests
// inside ctx: canceling it stops the scrubber just like StopScrub or
// Close (after which StartScrub reports already-running until StopScrub
// clears the slot).
func (s *Store) StartScrub(ctx context.Context, interval time.Duration, rateBlocksPerSec int) error {
	if !s.scrubSafe {
		return fmt.Errorf("shiftsplit: background scrub needs a concurrency-safe store (OpenServing); use ScrubOnce")
	}
	sc, err := s.ensureScrubber(storage.ScrubberOptions{RateBlocksPerSec: rateBlocksPerSec})
	if err != nil {
		return err
	}
	s.scrubMu.Lock()
	defer s.scrubMu.Unlock()
	if s.scrubStop != nil {
		return fmt.Errorf("shiftsplit: scrub already running")
	}
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	s.scrubStop, s.scrubDone = cancel, done
	go func() {
		defer close(done)
		_ = sc.Run(ctx, interval)
	}()
	return nil
}

// StopScrub halts the background scrubber and waits for it to exit (no-op
// when none is running).
func (s *Store) StopScrub() {
	s.scrubMu.Lock()
	stop, done := s.scrubStop, s.scrubDone
	s.scrubStop, s.scrubDone = nil, nil
	s.scrubMu.Unlock()
	if stop != nil {
		stop()
		<-done
	}
}

// RepairQuarantined tries to roll every quarantined block forward from the
// newest retained post-image (the staging overlay or the last committed
// batch). Repaired blocks are re-verified and released from quarantine;
// blocks no source covers stay quarantined and are counted in unrepaired —
// only a re-materialize can recover those.
func (s *Store) RepairQuarantined() (repaired, unrepaired int, err error) {
	for _, rec := range s.quarantine.Snapshot() {
		ok, rerr := s.counting.RepairBlock(rec.Block)
		if rerr != nil {
			return repaired, unrepaired, fmt.Errorf("shiftsplit: repair block %d: %w", rec.Block, rerr)
		}
		if !ok {
			unrepaired++
			continue
		}
		// Trust nothing: the block must verify clean before release.
		corrupt, verr := s.counting.VerifyBlocks([]int{rec.Block})
		if verr != nil {
			return repaired, unrepaired, fmt.Errorf("shiftsplit: verify repaired block %d: %w", rec.Block, verr)
		}
		if len(corrupt) > 0 {
			unrepaired++
			continue
		}
		s.quarantine.Remove(rec.Block)
		repaired++
	}
	return repaired, unrepaired, nil
}
