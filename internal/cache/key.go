package cache

import (
	"mddm/internal/query"
)

// QueryKey canonicalizes a query text into the cache key and reports
// which catalog entry the query addresses (the FROM name, or the
// DESCRIBE target), so the serving layer can version the key by that
// MO's registration generation and engine epoch. Two source strings
// that parse to the same query — whitespace, keyword case, redundant
// parentheses, `!=` vs `<>`, number spellings, a default alias spelled
// out — produce the same key; distinct parameters cannot collide
// because the canonical form is injective on the parsed query
// (FuzzCacheKey pushes on both properties).
//
// The key deliberately excludes tracing, explain and every other
// context-carried execution knob: none of them changes a result.
func QueryKey(src string) (key, mo string, err error) {
	q, err := query.Parse(src)
	if err != nil {
		return "", "", err
	}
	mo = q.From
	if q.Describe != "" {
		mo = q.Describe
	}
	return q.Canonical(), mo, nil
}
