package lint

// This file is a source-level check of who writes a served model: the
// storage engine is the only writer of an MO's fact set, fact dictionary
// and fact–dimension relations once it serves them (Engine.AppendFact
// inserts a new fact with its pairs under the lock every read of them
// takes), so the packages that serve, plan, cache, batch and persist
// queries must call none of the MO, relation and dictionary mutators
// themselves. A call there would write what a context view may be
// walking. The check runs in CI (via TestServedModelWriters).
//
// A second check covers the dimensions: nothing that serves, plans,
// caches, batches, persists or indexes queries writes one, the engine
// included (via TestServedDimensionWriters).

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

// modelMutators are the methods that write a model's facts or relations.
var modelMutators = map[string]bool{
	"RelateAnnot": true, "Relate": true, "AddAnnot": true, "AddDenseAnnot": true, "AdoptPairs": true, "EnsureTotal": true,
	"AddFact": true, "AddDense": true, "InsertFact": true, "SetRelation": true, "Rekey": true, "Intern": true, "InternAll": true,
}

// writerAllowList names, per file, the mutators a file may call: the
// snapshot restore builds what it installs before the MO is served.
var writerAllowList = map[string][]string{
	"internal/segment/snapshot.go": {"AdoptPairs", "InternAll"},
	"internal/segment/store.go":    {"AddDense", "SetRelation"},
}

// CheckServedModelWriters parses the non-test files of writerCheckDirs
// under root (the module root) and returns a problem per call of a model
// mutator the allow-list does not name.
func CheckServedModelWriters(root string) ([]string, error) {
	return checkCalls(root, writerCheckDirs, modelMutators, writerAllowList,
		"a served model is written only by storage.Engine.AppendFact")
}

// dimensionCheckDirs are the packages (relative to the module root) that
// must never write a served dimension: storage.Engine memoizes each
// covering verdict for its lifetime (Engine.Covering), which holds only
// while no dimension it serves gains or loses a value, an edge or a
// representation.
var dimensionCheckDirs = []string{
	"internal/batch", "internal/cache", "internal/plan", "internal/segment", "internal/serve", "internal/storage",
}

// dimensionMutators are the methods that write a dimension.
var dimensionMutators = map[string]bool{
	"AddValue": true, "AddValueAnnot": true, "RemoveValue": true,
	"AddEdge": true, "AddEdgeAnnot": true, "AddRepresentation": true,
}

// CheckServedDimensionWriters parses the non-test files of
// dimensionCheckDirs under root (the module root) and returns a problem
// per call of a dimension mutator.
func CheckServedDimensionWriters(root string) ([]string, error) {
	return checkCalls(root, dimensionCheckDirs, dimensionMutators, nil,
		"a served dimension is never written: storage.Engine memoizes its covering verdicts")
}

// checkCalls parses the non-test files of dirs under root and returns,
// sorted, a problem per call of a method named in names that allow does
// not list for the call's file; why ends each problem.
func checkCalls(root string, dirs []string, names map[string]bool, allow map[string][]string, why string) ([]string, error) {
	var problems []string
	for _, dir := range dirs {
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
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && names[sel.Sel.Name] &&
					!slices.Contains(allow[path], sel.Sel.Name) {
					problems = append(problems, fmt.Sprintf("%s: calls %s: %s", path, sel.Sel.Name, why))
				}
				return true
			})
		}
	}
	sort.Strings(problems)
	return problems, nil
}
