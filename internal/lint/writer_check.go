package lint

// This file is a source-level check of who writes a served model: the
// storage engine is the only writer of an MO's fact–dimension relations
// once it serves them (Engine.AppendFact relates a new fact's pairs under
// the lock every read of them takes), so the packages that serve, plan,
// cache, batch and persist queries must call none of the MO and relation
// mutators themselves. A call there would write relations that a context
// view may be walking. The check runs in CI (via TestServedModelWriters).

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"slices"
	"sort"
)

// writerCheckDirs are the packages (relative to the module root) that
// must leave a served model's writes to the engine.
var writerCheckDirs = []string{
	"internal/batch", "internal/cache", "internal/plan", "internal/segment", "internal/serve",
}

// modelMutators are the MO and relation methods that write relations.
var modelMutators = map[string]bool{
	"RelateAnnot": true, "Relate": true, "AddAnnot": true, "AdoptPairs": true, "EnsureTotal": true,
}

// writerAllowList names, per file, the mutators a file may call. The
// snapshot restore fills relations before the MO they join is served.
var writerAllowList = map[string][]string{
	"internal/segment/snapshot.go": {"AdoptPairs"},
}

// CheckServedModelWriters parses the non-test files of writerCheckDirs
// under root (the module root) and returns a problem per call of a model
// mutator the allow-list does not name.
func CheckServedModelWriters(root string) ([]string, error) {
	var problems []string
	for _, dir := range writerCheckDirs {
		files, err := parseNonTest(filepath.Join(root, dir))
		if err != nil {
			return nil, fmt.Errorf("lint: %s: %w", dir, err)
		}
		for name, f := range files {
			path := dir + "/" + name
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && modelMutators[sel.Sel.Name] &&
					!slices.Contains(writerAllowList[path], sel.Sel.Name) {
					problems = append(problems, fmt.Sprintf("%s: calls %s: a served model is written only by storage.Engine.AppendFact", path, sel.Sel.Name))
				}
				return true
			})
		}
	}
	sort.Strings(problems)
	return problems, nil
}
