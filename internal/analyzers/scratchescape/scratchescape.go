// Package scratchescape flags pooled scratch buffers that outlive their
// pool slot.
//
// The concurrent read path of PR 2 is allocation-free because FileStore and
// tile.Store draw per-call scratch from sync.Pools (getScratch/getBuf) and
// Put it back on return. That is only sound while the buffer's lifetime is
// bracketed by the call: a pooled buffer that is returned, parked in a
// struct field, sent on a channel, or captured by a goroutine will be
// recycled while still referenced, and two queriers end up decoding
// coefficients through the same bytes — silent cross-request corruption
// that -race cannot always see (the pool hand-off is synchronized; the
// use-after-Put is not).
//
// Within each function the analyzer tracks values originating from
// (*sync.Pool).Get — directly or through the repo's getBuf/getScratch
// helpers — together with their intra-function aliases (y := x, b := *bp,
// s := b[:n]). It reports when an alias is returned, assigned to anything
// non-local (struct field, map/slice element, package variable), sent on a
// channel, or referenced from a go statement. Reading one element (b[i])
// and passing the buffer to an ordinary call (copy, ReadBlock) are the
// intended uses and stay silent.
//
// Sharing is what races the pool, not hand-over. A goroutine or worker
// closure that draws its own buffer *inside* its body owns it outright; when
// it passes the buffer on inside its result — returned from a worker-pool
// stage, or sent across a channel — and the receiver Puts it, exactly one
// party holds the buffer at any time. So only identifiers declared outside
// the go statement or closure (captures, arguments) count as shared.
package scratchescape

import (
	"go/ast"
	"go/types"

	"github.com/shiftsplit/shiftsplit/internal/analyzers/analysis"
	"github.com/shiftsplit/shiftsplit/internal/analyzers/vetutil"
)

// Analyzer is the scratchescape check.
var Analyzer = &analysis.Analyzer{
	Name: "scratchescape",
	Doc:  "flag pooled scratch buffers that escape their call (returned, stored, or captured by a goroutine)",
	Run:  run,
}

// pooledHelpers are repo-local methods that hand out pooled scratch.
var pooledHelpers = map[string]bool{
	"getBuf":     true,
	"getScratch": true,
	"getRunBuf":  true,
	"runBuf":     true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if pooledHelpers[fd.Name.Name] {
				continue // the hand-out helpers return pooled scratch by design
			}
			checkFunc(pass, fd.Body)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	pooled := collectPooled(pass, body)
	if len(pooled) == 0 {
		return
	}
	v := &visitor{pass: pass, pooled: pooled}
	ast.Inspect(body, v.visit)
}

// collectPooled walks the function body once, in source order, building the
// set of objects that alias pooled scratch.
func collectPooled(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	pooled := make(map[types.Object]bool)
	// Iterate to a fixed point so aliases declared before later re-aliases
	// are caught regardless of statement order (cheap: bodies are small).
	for {
		grew := false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) == 0 || len(as.Rhs) == 0 {
				return true
			}
			// b, ok := pool.Get().(*[]float64) has 2 LHS, 1 RHS; only the
			// first LHS receives the buffer.
			rhs := as.Rhs[0]
			if len(as.Lhs) != len(as.Rhs) && len(as.Rhs) != 1 {
				return true
			}
			for i, lhs := range as.Lhs {
				src := rhs
				if len(as.Lhs) == len(as.Rhs) {
					src = as.Rhs[i]
				} else if i > 0 {
					break
				}
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = pass.TypesInfo.Uses[id]
				}
				if obj == nil || pooled[obj] {
					continue
				}
				if pooledSource(pass, pooled, src) {
					pooled[obj] = true
					grew = true
				}
			}
			return true
		})
		if !grew {
			return pooled
		}
	}
}

// pooledSource reports whether expr yields (an alias of) pooled scratch:
// a sync.Pool Get, a getBuf/getScratch helper call, or a deref/slice/paren
// of an already-pooled variable. A type assertion over any of these is
// looked through.
func pooledSource(pass *analysis.Pass, pooled map[types.Object]bool, expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.CallExpr:
		return isPoolGet(pass, e) || isPooledHelper(pass, e)
	case *ast.TypeAssertExpr:
		return pooledSource(pass, pooled, e.X)
	case *ast.UnaryExpr:
		if e.Op.String() == "&" {
			return pooledSource(pass, pooled, e.X)
		}
		return false
	case *ast.StarExpr:
		return pooledSource(pass, pooled, e.X)
	case *ast.SliceExpr:
		return pooledSource(pass, pooled, e.X)
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[e]
		return obj != nil && pooled[obj]
	default:
		return false
	}
}

// isPoolGet matches x.Get() where x is a sync.Pool or *sync.Pool.
func isPoolGet(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Get" {
		return false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok {
		return false
	}
	name, ok := vetutil.NamedIn(tv.Type, "sync")
	return ok && name == "Pool"
}

// isPooledHelper matches the repository's scratch-handout helpers.
func isPooledHelper(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := vetutil.Callee(pass.TypesInfo, call)
	return fn != nil && pooledHelpers[fn.Name()]
}

type visitor struct {
	pass   *analysis.Pass
	pooled map[types.Object]bool
}

func (v *visitor) visit(n ast.Node) bool {
	switch stmt := n.(type) {
	case *ast.ReturnStmt:
		for _, res := range stmt.Results {
			if v.aliases(res) {
				v.pass.Reportf(res.Pos(), "pooled scratch buffer is returned; it will be recycled while the caller still holds it — copy it (or allocate) instead")
			}
		}
	case *ast.AssignStmt:
		for i, lhs := range stmt.Lhs {
			if i >= len(stmt.Rhs) && len(stmt.Rhs) != 1 {
				break
			}
			rhs := stmt.Rhs[0]
			if len(stmt.Lhs) == len(stmt.Rhs) {
				rhs = stmt.Rhs[i]
			}
			if !v.aliases(rhs) {
				continue
			}
			switch target := ast.Unparen(lhs).(type) {
			case *ast.SelectorExpr:
				v.pass.Reportf(stmt.Pos(), "pooled scratch buffer is stored in a field; it outlives the call and will be recycled under the holder — copy it instead")
			case *ast.IndexExpr:
				v.pass.Reportf(stmt.Pos(), "pooled scratch buffer is stored in a container element; it outlives the call — copy it instead")
			case *ast.Ident:
				if obj := v.objOf(target); obj != nil && isPackageLevel(obj) {
					v.pass.Reportf(stmt.Pos(), "pooled scratch buffer is stored in a package variable; it outlives the call — copy it instead")
				}
			}
		}
	case *ast.SendStmt:
		if v.aliases(stmt.Value) {
			v.pass.Reportf(stmt.Value.Pos(), "pooled scratch buffer is sent on a channel; the receiver races the pool — copy it instead")
		}
	case *ast.GoStmt:
		v.checkGo(stmt)
		return false // reported wholesale; don't descend and double-report
	case *ast.CallExpr:
		if v.checkParallelCall(stmt) {
			return false // same wholesale treatment as a go statement
		}
	}
	return true
}

// checkParallelCall treats function literals handed to the worker-pool
// package like go statements: parallel.Run executes its produce closure on
// worker goroutines, so a pooled buffer captured by (or passed through) such
// a closure races the pool exactly as a direct goroutine capture would. It
// reports pooled identifiers inside function-literal arguments of calls into
// internal/parallel and returns whether the call was one.
func (v *visitor) checkParallelCall(call *ast.CallExpr) bool {
	fn := vetutil.Callee(v.pass.TypesInfo, call)
	if fn == nil || !vetutil.HasPathSuffix(vetutil.DeclPkgPath(fn), "internal/parallel") {
		return false
	}
	for _, arg := range call.Args {
		lit, ok := ast.Unparen(arg).(*ast.FuncLit)
		if !ok {
			continue
		}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := v.pass.TypesInfo.Uses[id]
			if obj != nil && v.pooled[obj] && !declaredIn(obj, lit) {
				v.pass.Reportf(id.Pos(), "pooled scratch buffer %s is captured by a closure handed to the parallel worker pool; it runs on another goroutine and races the pool's next Get — give it a copy", id.Name)
			}
			return true
		})
	}
	return true
}

// checkGo reports pooled buffers referenced anywhere in a go statement:
// captured by the function literal or passed as an argument.
func (v *visitor) checkGo(g *ast.GoStmt) {
	ast.Inspect(g.Call, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := v.pass.TypesInfo.Uses[id]
		if obj != nil && v.pooled[obj] && !declaredIn(obj, g.Call) {
			v.pass.Reportf(id.Pos(), "pooled scratch buffer %s is shared with a goroutine; the goroutine races the pool's next Get — give it a copy", id.Name)
		}
		return true
	})
}

// declaredIn reports whether obj is declared inside n — a buffer the
// goroutine or closure n drew for itself rather than one it shares with the
// function around it.
func declaredIn(obj types.Object, n ast.Node) bool {
	return n.Pos() <= obj.Pos() && obj.Pos() < n.End()
}

// aliases reports whether expr evaluates to (a view of) a pooled buffer:
// the variable itself, a deref, or a reslice. Reading a single element
// (b[i]) copies a scalar and is fine.
func (v *visitor) aliases(expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		obj := v.pass.TypesInfo.Uses[e]
		return obj != nil && v.pooled[obj]
	case *ast.StarExpr:
		return v.aliases(e.X)
	case *ast.SliceExpr:
		return v.aliases(e.X)
	case *ast.UnaryExpr:
		return e.Op.String() == "&" && v.aliases(e.X)
	default:
		return false
	}
}

func (v *visitor) objOf(id *ast.Ident) types.Object {
	if obj := v.pass.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return v.pass.TypesInfo.Defs[id]
}

// isPackageLevel reports whether obj is declared at package scope.
func isPackageLevel(obj types.Object) bool {
	return obj.Parent() != nil && obj.Parent().Parent() == types.Universe
}
