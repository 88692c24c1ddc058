// Command shiftsplitvet runs the repository's custom static analyzers —
// the invariants the compiler cannot see but the paper's guarantees and
// the crash-safety layer depend on:
//
//	journalwrite   block mutations must go through the journaled batch path
//	storageerr     storage-stack errors must not be dropped
//	scratchescape  pooled scratch buffers must not outlive their call
//	maprangefloat  SHIFT/SPLIT float sums must not follow map order
//	lockedstore    stateful stores need storage.Locked on concurrent paths
//	batchio        engine I/O loops must use the vectored batch calls
//	errclass       error handling must branch on the typed taxonomy, not message text
//	ctxflow        serving/maintenance paths must thread a Context and select on cancellation
//	lockorder      consistent lock acquisition order; no self-deadlock, leaked locks, or channel ops under a lock
//	atomicfield    a field accessed via sync/atomic anywhere must be atomic everywhere
//	resourceleak   tickers/timers/files/handles must reach Stop/Close on every path; goroutines must be joinable
//
// Two are CFG-based — lockorder and resourceleak run path analyses over
// internal/analyzers/cfg control-flow graphs instead of matching syntax —
// and two share cross-package facts through the multichecker's fact store:
// lockorder its lock acquisition sets, atomicfield its atomic fields.
// Snapshot pins need no analyzer: Store.WithSnapshot is the only way to
// take one and releases it on every exit.
//
// Usage:
//
//	go run ./cmd/shiftsplitvet ./...
//	go run ./cmd/shiftsplitvet -only storageerr,journalwrite ./internal/...
//
// Exit status is 0 when clean, 1 when findings were reported, 2 on usage
// or load errors. A finding can be suppressed for a line with
// `//shiftsplitvet:ignore <analyzer> -- reason`.
package main

import (
	"github.com/shiftsplit/shiftsplit/internal/analyzers/atomicfield"
	"github.com/shiftsplit/shiftsplit/internal/analyzers/batchio"
	"github.com/shiftsplit/shiftsplit/internal/analyzers/ctxflow"
	"github.com/shiftsplit/shiftsplit/internal/analyzers/errclass"
	"github.com/shiftsplit/shiftsplit/internal/analyzers/journalwrite"
	"github.com/shiftsplit/shiftsplit/internal/analyzers/lockedstore"
	"github.com/shiftsplit/shiftsplit/internal/analyzers/lockorder"
	"github.com/shiftsplit/shiftsplit/internal/analyzers/maprangefloat"
	"github.com/shiftsplit/shiftsplit/internal/analyzers/multichecker"
	"github.com/shiftsplit/shiftsplit/internal/analyzers/resourceleak"
	"github.com/shiftsplit/shiftsplit/internal/analyzers/scratchescape"
	"github.com/shiftsplit/shiftsplit/internal/analyzers/storageerr"
)

func main() {
	multichecker.Main(
		journalwrite.Analyzer,
		storageerr.Analyzer,
		scratchescape.Analyzer,
		maprangefloat.Analyzer,
		lockedstore.Analyzer,
		batchio.Analyzer,
		errclass.Analyzer,
		ctxflow.Analyzer,
		lockorder.Analyzer,
		atomicfield.Analyzer,
		resourceleak.Analyzer,
	)
}
