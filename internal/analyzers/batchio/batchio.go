// Package batchio keeps the engine layers on the vectored I/O path.
//
// PR 5 made ReadBlocks/WriteBlocks (and the tile layer's ReadTiles/
// WriteTiles) first-class: every storage wrapper forwards batches natively,
// so a loop that issues one ReadBlock or WriteTile per iteration forfeits
// run coalescing — one positional syscall per consecutive id run — and
// regresses to one device request per block. Inside the engine packages
// (tile, transform, appender, reconstruct, query) that is almost
// always an accident: the loop already knows its id set up front and should
// collect it into one batched call.
//
// The analyzer flags ReadBlock/WriteBlock/ReadTile/WriteTile calls, on
// storage or tile receivers, that sit inside a for or range loop and take a
// block id derived from a loop variable. Intentional per-block loops (rare:
// an access pattern that genuinely cannot be enumerated, or a fallback the
// batch helpers themselves implement) carry a
// //shiftsplitvet:ignore batchio comment with the reason.
package batchio

import (
	"go/ast"
	"go/types"

	"github.com/shiftsplit/shiftsplit/internal/analyzers/analysis"
	"github.com/shiftsplit/shiftsplit/internal/analyzers/vetutil"
)

// Analyzer is the batchio check.
var Analyzer = &analysis.Analyzer{
	Name: "batchio",
	Doc:  "flag per-block ReadBlock/WriteBlock loops in engine packages that should use the vectored batch calls",
	Run:  run,
}

// enginePkgs are the layers whose I/O loops enumerate their ids up front
// and therefore have no excuse for per-block calls.
var enginePkgs = []string{
	"internal/tile",
	"internal/transform",
	"internal/appender",
	"internal/reconstruct",
	"internal/query",
}

// batched maps each per-block method to its vectored replacement.
var batched = map[string]string{
	"ReadBlock":  "ReadBlocks",
	"WriteBlock": "WriteBlocks",
	"ReadTile":   "ReadTiles",
	"WriteTile":  "WriteTiles",
}

func run(pass *analysis.Pass) error {
	if !vetutil.HasAnyPathSuffix(pass.Pkg.Path(), enginePkgs...) {
		return nil
	}
	reported := make(map[ast.Node]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			vars := loopVars(pass.TypesInfo, n)
			if vars == nil {
				return true
			}
			body := loopBody(n)
			addDerived(pass.TypesInfo, body, vars)
			ast.Inspect(body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok || reported[call] {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				repl, ok := batched[sel.Sel.Name]
				if !ok || len(call.Args) == 0 {
					return true
				}
				recv := vetutil.ReceiverType(pass.TypesInfo, call)
				if !storageReceiver(recv) {
					return true
				}
				if !usesAny(pass.TypesInfo, call.Args[0], vars) {
					return true
				}
				reported[call] = true
				pass.Reportf(call.Pos(),
					"per-block %s in a loop over block ids; collect the ids and issue one %s (vectored runs coalesce into single device requests)",
					sel.Sel.Name, repl)
				return true
			})
			return true
		})
	}
	return nil
}

// loopVars returns the loop variables a for/range statement introduces or
// steps, or nil when n is not a loop.
func loopVars(info *types.Info, n ast.Node) map[types.Object]bool {
	vars := make(map[types.Object]bool)
	collect := func(e ast.Expr) {
		id, ok := e.(*ast.Ident)
		if !ok {
			return
		}
		if obj := info.Defs[id]; obj != nil {
			vars[obj] = true
		} else if obj := info.Uses[id]; obj != nil {
			vars[obj] = true
		}
	}
	switch loop := n.(type) {
	case *ast.ForStmt:
		if assign, ok := loop.Init.(*ast.AssignStmt); ok {
			for _, lhs := range assign.Lhs {
				collect(lhs)
			}
		}
		// `for ; i < n; i++` steps a variable declared outside Init.
		if inc, ok := loop.Post.(*ast.IncDecStmt); ok {
			collect(inc.X)
		}
	case *ast.RangeStmt:
		collect(loop.Key)
		collect(loop.Value)
	default:
		return nil
	}
	if len(vars) == 0 {
		return nil
	}
	return vars
}

// addDerived grows vars with locals the loop body assigns from loop-var
// expressions (`b := &buckets[i]`, `id := base + i`), iterating to a
// fixpoint so short chains are followed too. This is what catches the
// common `b := &items[i]; st.ReadTile(b.Block)` shape.
func addDerived(info *types.Info, body *ast.BlockStmt, vars map[types.Object]bool) {
	for {
		grew := false
		ast.Inspect(body, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if !ok || len(assign.Lhs) != len(assign.Rhs) {
				return true
			}
			for i, lhs := range assign.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj == nil || vars[obj] {
					continue
				}
				if usesAny(info, assign.Rhs[i], vars) {
					vars[obj] = true
					grew = true
				}
			}
			return true
		})
		if !grew {
			return
		}
	}
}

func loopBody(n ast.Node) *ast.BlockStmt {
	switch loop := n.(type) {
	case *ast.ForStmt:
		return loop.Body
	case *ast.RangeStmt:
		return loop.Body
	}
	return nil
}

// storageReceiver reports whether t names a type from the storage or tile
// layers (pointer-stripped), including the BlockStore interface itself.
func storageReceiver(t types.Type) bool {
	if _, ok := vetutil.NamedIn(t, "internal/storage"); ok {
		return true
	}
	_, ok := vetutil.NamedIn(t, "internal/tile")
	return ok
}

// usesAny reports whether expr mentions any of the given objects.
func usesAny(info *types.Info, expr ast.Expr, vars map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := info.Uses[id]; obj != nil && vars[obj] {
			found = true
		}
		return true
	})
	return found
}
