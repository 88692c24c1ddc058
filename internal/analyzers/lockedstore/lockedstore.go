// Package lockedstore guards the boundary between the stateful durable
// storage layer and the concurrent serving layer.
//
// storage.Durable, storage.Checksummed, the journal, and the fault
// injectors keep per-instance scratch (frame buffers, staging maps,
// epochs) and are documented as single-goroutine types; the serving stack
// (internal/cache's sharded LRU, internal/server's handlers) fans requests
// out across goroutines. PR 2 bridged the two with storage.Locked, and
// stack.go (assemble) interposes it whenever a non-versioned durable store sits
// under the serve cache. This analyzer keeps that arrangement honest:
//
//   - anywhere in the module, handing a known non-thread-safe store
//     directly to cache.New is flagged — concurrent cache misses would
//     interleave inside the durable layer's shared frame scratch;
//   - inside the concurrent packages (internal/server, internal/cache),
//     calling device methods directly on a non-thread-safe store value is
//     flagged for the same reason.
//
// The fix is always the same wrapper: storage.NewLocked(store).
package lockedstore

import (
	"go/ast"

	"github.com/shiftsplit/shiftsplit/internal/analyzers/analysis"
	"github.com/shiftsplit/shiftsplit/internal/analyzers/vetutil"
)

// Analyzer is the lockedstore check.
var Analyzer = &analysis.Analyzer{
	Name: "lockedstore",
	Doc:  "flag non-thread-safe durable store types used on the concurrent serving path without storage.Locked",
	Run:  run,
}

// unsafeStores are the internal/storage types documented as not safe for
// concurrent use (stateful scratch or staging under the hood). MemStore,
// FileStore, Counting, BufferPool, and Locked itself are absent: they
// synchronize internally or hold no shared state.
var unsafeStores = map[string]bool{
	"Durable":     true,
	"Checksummed": true,
	"Journal":     true,
	"CrashStore":  true,
	"Faulty":      true,
}

// deviceMethods are the BlockStore(-ish) calls whose interleaving corrupts
// a stateful store.
var deviceMethods = map[string]bool{
	"ReadBlock":  true,
	"WriteBlock": true,
	"Commit":     true,
	"Truncate":   true,
	"Sync":       true,
}

// concurrentPkgs is where multi-goroutine access is the norm.
var concurrentPkgs = []string{
	"internal/server",
	"internal/cache",
}

func run(pass *analysis.Pass) error {
	inConcurrent := vetutil.HasAnyPathSuffix(pass.Pkg.Path(), concurrentPkgs...)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkCacheNew(pass, call)
			if inConcurrent {
				checkDeviceCall(pass, call)
			}
			return true
		})
	}
	return nil
}

// checkCacheNew flags cache.New(store, ...) when store's static type is a
// known non-thread-safe storage type.
func checkCacheNew(pass *analysis.Pass, call *ast.CallExpr) {
	fn := vetutil.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Name() != "New" || !vetutil.HasPathSuffix(vetutil.DeclPkgPath(fn), "internal/cache") {
		return
	}
	if len(call.Args) == 0 {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok {
		return
	}
	if name, ok := vetutil.NamedIn(tv.Type, "internal/storage"); ok && unsafeStores[name] {
		pass.Reportf(call.Args[0].Pos(),
			"storage.%s is not safe for the cache's concurrent misses; wrap it: cache.New(storage.NewLocked(...), ...)", name)
	}
}

// checkDeviceCall flags direct device-method calls on a non-thread-safe
// store inside a concurrent package.
func checkDeviceCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !deviceMethods[sel.Sel.Name] {
		return
	}
	recv := vetutil.ReceiverType(pass.TypesInfo, call)
	if name, ok := vetutil.NamedIn(recv, "internal/storage"); ok && unsafeStores[name] {
		pass.Reportf(call.Pos(),
			"%s on storage.%s from a concurrent package; this type shares scratch across calls — access it through storage.NewLocked", sel.Sel.Name, name)
	}
}
