package shiftsplit

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/cache"
	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// capabilityChecks reports, per optional storage interface, whether a
// store value implements it.
var capabilityChecks = map[string]func(any) bool{
	"BatchReader":         func(v any) bool { _, ok := v.(storage.BatchReader); return ok },
	"BatchWriter":         func(v any) bool { _, ok := v.(storage.BatchWriter); return ok },
	"Syncer":              func(v any) bool { _, ok := v.(storage.Syncer); return ok },
	"Truncater":           func(v any) bool { _, ok := v.(storage.Truncater); return ok },
	"Committer":           func(v any) bool { _, ok := v.(storage.Committer); return ok },
	"Verifier":            func(v any) bool { _, ok := v.(storage.Verifier); return ok },
	"Repairer":            func(v any) bool { _, ok := v.(storage.Repairer); return ok },
	"FrameViewer":         func(v any) bool { _, ok := v.(storage.FrameViewer); return ok },
	"MappedReadsReporter": func(v any) bool { _, ok := v.(storage.MappedReadsReporter); return ok },
}

// blockStores holds every block store type of internal/storage and
// internal/cache, named as DESIGN §11's table names them.
var blockStores = map[string]storage.BlockStore{
	"MemStore":       (*storage.MemStore)(nil),
	"FileStore":      (*storage.FileStore)(nil),
	"MappedStore":    (*storage.MappedStore)(nil),
	"Counting":       (*storage.Counting)(nil),
	"BufferPool":     (*storage.BufferPool)(nil),
	"Locked":         (*storage.Locked)(nil),
	"Faulty":         (*storage.Faulty)(nil),
	"CrashStore":     (*storage.CrashStore)(nil),
	"Checksummed":    (*storage.Checksummed)(nil),
	"ChecksumReader": (*storage.ChecksumReader)(nil),
	"Durable":        (*storage.Durable)(nil),
	"Versioned":      (*storage.Versioned)(nil),
	"Snapshot":       (*storage.Snapshot)(nil),
	"SplitRW":        (*storage.SplitRW)(nil),
	"Offset":         (*storage.Offset)(nil),
	"Degraded":       (*storage.Degraded)(nil),
	"Breaker":        (*storage.Breaker)(nil),
	"cache.Sharded":  (*cache.Sharded)(nil),
}

// TestCapabilityTable holds the method set of every storage and cache type
// to the Implementers column of DESIGN §11's capability table, so a
// capability method cannot come or go without the table saying who calls
// it and why it is an interface.
func TestCapabilityTable(t *testing.T) {
	if got, want := sourceBlockStores(t), sortedKeys(blockStores); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("block store types in the source: %v\nlisted here: %v", got, want)
	}
	table := designCapabilityTable(t)
	if got, want := sortedKeys(table), sortedKeys(capabilityChecks); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("DESIGN §11 tabulates %v, want %v", got, want)
	}
	for iface, implements := range capabilityChecks {
		var have []string
		for name, bs := range blockStores {
			if implements(bs) {
				have = append(have, name)
			}
		}
		sort.Strings(have)
		listed := append([]string(nil), table[iface]...)
		sort.Strings(listed)
		if strings.Join(have, " ") != strings.Join(listed, " ") {
			t.Errorf("%s: implemented by %v, DESIGN §11 lists %v", iface, have, listed)
		}
	}
}

// sourceBlockStores names the types in internal/storage and internal/cache
// that declare a BlockSize method.
func sourceBlockStores(t *testing.T) []string {
	t.Helper()
	var names []string
	for _, pkg := range []string{"storage", "cache"} {
		files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv == nil || fn.Name.Name != "BlockSize" {
					continue
				}
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				name := recv.(*ast.Ident).Name
				if pkg == "cache" {
					name = "cache." + name
				}
				names = append(names, name)
			}
		}
	}
	sort.Strings(names)
	return names
}

// designCapabilityTable parses DESIGN §11's capability table into the
// backticked type names of each interface's Implementers cell.
func designCapabilityTable(t *testing.T) map[string][]string {
	t.Helper()
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start := strings.Index(doc, "\n## 11.")
	end := strings.Index(doc, "\n## 12.")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §11")
	}
	code := regexp.MustCompile("`([^`]+)`")
	table := map[string][]string{}
	inTable := false
	for _, line := range strings.Split(doc[start:end], "\n") {
		switch {
		case strings.HasPrefix(line, "| Interface | Implementers |"):
			inTable = true
		case inTable && strings.HasPrefix(line, "|---"):
		case inTable && strings.HasPrefix(line, "| "):
			cells := strings.Split(line, "|")
			iface := code.FindStringSubmatch(cells[1])
			if iface == nil {
				t.Fatalf("capability row without an interface: %q", line)
			}
			var impls []string
			for _, m := range code.FindAllStringSubmatch(cells[2], -1) {
				impls = append(impls, m[1])
			}
			table[iface[1]] = impls
		default:
			inTable = false
		}
	}
	if len(table) == 0 {
		t.Fatal("DESIGN §11 has no capability table")
	}
	return table
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
