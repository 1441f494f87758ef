package lint

// This file is a source-level check, not an MO check: it parses the
// query-path packages and verifies that the serving contract holds —
// every operation a server dispatches must have a context-accepting
// variant, or cancellation and resource budgets silently stop at that
// layer. The check runs in CI (via TestContextPlumbing) so a refactor
// cannot drop context threading without failing the build.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// requiredContextFuncs is the contract: package directory (relative to
// the module root) → exported functions/methods that must take a
// context.Context as their first parameter.
var requiredContextFuncs = map[string][]string{
	"internal/query": {"ExecContext", "RunContext"},
	"internal/algebra": {
		"AggregateContext", "SQLAggregateContext", "SelectContext",
	},
	"internal/storage": {
		"BuildEngine", "CharacterizingContext", "CountDistinctByContext",
		"SumByContext", "MaterializeContext", "RollupFromContext",
	},
	"internal/serve": {"Query", "ServeQuery"},
}

// CheckContextPlumbing parses the query-path packages under root (the
// module root) and returns a problem per required function that is
// missing or does not accept a context.Context first parameter.
func CheckContextPlumbing(root string) ([]string, error) {
	var problems []string
	dirs := make([]string, 0, len(requiredContextFuncs))
	for d := range requiredContextFuncs {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		found, err := contextFuncs(filepath.Join(root, dir))
		if err != nil {
			return nil, fmt.Errorf("lint: %s: %w", dir, err)
		}
		for _, name := range requiredContextFuncs[dir] {
			if !found[name] {
				problems = append(problems,
					fmt.Sprintf("%s: %s must exist and take a context.Context first parameter", dir, name))
			}
		}
	}
	return problems, nil
}

// contextFuncs parses every non-test Go file in dir and reports which
// function names take a context.Context (or ctx "context".Context alias)
// as their first parameter.
func contextFuncs(dir string) (map[string]bool, error) {
	files, err := parseNonTest(dir)
	if err != nil {
		return nil, err
	}
	found := map[string]bool{}
	for _, f := range files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Type.Params == nil || len(fn.Type.Params.List) == 0 {
				continue
			}
			if isContextType(fn.Type.Params.List[0].Type) {
				found[fn.Name.Name] = true
			}
		}
	}
	return found, nil
}

// parseNonTest parses every non-test Go file in dir, keyed by file name.
func parseNonTest(dir string) (map[string]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || filepath.Ext(name) != ".go" || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files[name] = f
	}
	return files, nil
}

// isContextType reports whether an AST type expression is
// context.Context.
func isContextType(t ast.Expr) bool {
	sel, ok := t.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Context" {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "context"
}
