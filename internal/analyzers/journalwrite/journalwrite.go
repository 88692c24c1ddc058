// Package journalwrite flags block mutations that bypass the maintenance
// journal.
//
// PR 1 made every maintenance batch atomic by routing block writes through
// the write-ahead block journal (storage.Durable under tile.Store). That
// guarantee only holds if no engine writes blocks behind the journal's
// back: a direct FileStore.WriteBlock from a maintenance path would leave a
// crash window in which the transform is half pre-batch, half post-batch —
// exactly the hybrid state the SHIFT-SPLIT identities (paper Results 1–6)
// assume cannot exist.
//
// The analyzer therefore flags calls to the raw block-mutating storage
// APIs — WriteBlock and Truncate on any storage.BlockStore implementation,
// and the TruncateIfAble helper — outside the packages that are the
// journal/commit/recovery machinery itself (internal/storage), the
// sanctioned tiled write path into it (internal/tile), and the serve
// cache's write-through invalidation (internal/cache). Everything else must
// mutate blocks through tile.Store and seal the batch with a Commit on the
// stack under it.
//
// A second rule guards the maintenance engines' write discipline: tile-level
// mutations (WriteTile, Set, Add, ApplyBuckets) issued from a go statement.
// The engines keep results bit-identical and journal batches deterministic
// by mutating tiles only in internal/parallel's Run consumer, on the calling
// goroutine, in chunk order; a goroutine that writes tiles races that order
// and the journal's batch boundary. No package is exempt.
package journalwrite

import (
	"go/ast"
	"go/types"

	"github.com/shiftsplit/shiftsplit/internal/analyzers/analysis"
	"github.com/shiftsplit/shiftsplit/internal/analyzers/vetutil"
)

// Analyzer is the journalwrite check.
var Analyzer = &analysis.Analyzer{
	Name: "journalwrite",
	Doc:  "flag direct block mutations that bypass the maintenance journal",
	Run:  run,
}

// mutatingMethods are the BlockStore-level entry points that change the
// medium. Commit is deliberately absent: it is the sanctioned sealing call.
var mutatingMethods = map[string]bool{
	"WriteBlock": true,
	"Truncate":   true,
}

// mutatingFuncs are package-level storage helpers with the same effect.
var mutatingFuncs = map[string]bool{
	"TruncateIfAble": true,
}

// allowedPkgs may touch blocks directly: the journal protocol itself and
// its recovery path live in internal/storage, the tiled write path (which
// ends every batch with a Commit) in internal/tile, and the serve cache's
// write-through in internal/cache.
var allowedPkgs = []string{
	"internal/storage",
	"internal/tile",
	"internal/cache",
}

// tileMutators are the tile-level mutation entry points that the
// maintenance engines apply in a deterministic order; calling them from a
// goroutine forfeits that order.
var tileMutators = map[string]bool{
	"WriteTile":    true,
	"Set":          true,
	"Add":          true,
	"ApplyBuckets": true,
}

func run(pass *analysis.Pass) error {
	checkRaw := !vetutil.HasAnyPathSuffix(pass.Pkg.Path(), allowedPkgs...)
	for _, f := range pass.Files {
		if checkRaw {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := vetutil.Callee(pass.TypesInfo, call)
				if fn == nil || !vetutil.HasPathSuffix(vetutil.DeclPkgPath(fn), "internal/storage") {
					return true
				}
				sig := fn.Type().(*types.Signature)
				switch {
				case sig.Recv() != nil && mutatingMethods[fn.Name()]:
					pass.Reportf(call.Pos(),
						"direct %s on a storage device bypasses the maintenance journal; write through tile.Store and seal the batch with Commit",
						fn.Name())
				case sig.Recv() == nil && mutatingFuncs[fn.Name()]:
					pass.Reportf(call.Pos(),
						"storage.%s mutates blocks behind the journal; only the journal protocol may truncate stores",
						fn.Name())
				}
				return true
			})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				checkGoroutineTileWrites(pass, g)
			}
			return true
		})
	}
	return nil
}

// checkGoroutineTileWrites reports tile mutations anywhere inside a go
// statement — in the launched function literal's body or in a function
// value's arguments.
func checkGoroutineTileWrites(pass *analysis.Pass, g *ast.GoStmt) {
	ast.Inspect(g.Call, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := vetutil.Callee(pass.TypesInfo, call)
		if fn == nil || !vetutil.HasPathSuffix(vetutil.DeclPkgPath(fn), "internal/tile") {
			return true
		}
		sig := fn.Type().(*types.Signature)
		if sig.Recv() != nil && tileMutators[fn.Name()] {
			pass.Reportf(call.Pos(),
				"tile.%s from an ad hoc goroutine races the maintenance engine's deterministic write order; apply tile mutations in parallel.Run's consumer or on one goroutine",
				fn.Name())
		}
		return true
	})
}
