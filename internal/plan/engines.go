package plan

import (
	"context"
	"fmt"
	"sync"

	"mddm/internal/dimension"
	"mddm/internal/query"
	"mddm/internal/storage"
	"mddm/internal/temporal"
)

// CatalogEngines is the standalone Engines implementation: it builds one
// engine per catalog MO on demand and memoizes it until the catalog entry
// is swapped for a different MO. The serving layer has its own richer
// implementation (single-flight builds, column warming);
// this one serves tests, fuzzing, and benchmarks.
type CatalogEngines struct {
	cat query.Catalog
	ref temporal.Chronon

	mu      sync.Mutex
	engines map[string]*storage.Engine
}

// NewCatalogEngines returns an engine resolver over the catalog with NOW
// resolving to ref — the same evaluation context query.RunContext uses.
func NewCatalogEngines(cat query.Catalog, ref temporal.Chronon) *CatalogEngines {
	return &CatalogEngines{cat: cat, ref: ref, engines: map[string]*storage.Engine{}}
}

// EngineFor resolves (building and memoizing on first use) the engine for
// a catalog MO. A catalog entry replaced by a different MO rebuilds.
func (c *CatalogEngines) EngineFor(ctx context.Context, name string) (*storage.Engine, error) {
	m := c.cat[name]
	if m == nil {
		return nil, fmt.Errorf("plan: unknown MO %q", name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.engines[name]; e != nil && e.MO() == m {
		return e, nil
	}
	e, err := storage.BuildEngine(ctx, m, dimension.CurrentContext(c.ref))
	if err != nil {
		return nil, fmt.Errorf("plan: build engine for %q: %w", name, err)
	}
	c.engines[name] = e
	return e, nil
}
