package cache

import (
	"hash/maphash"
	"strings"
)

// This file is the cache's memory of QueryKey. Keying a query text means
// parsing and canonicalizing it, which costs more than the hit it finds;
// a dashboard sends the same few texts over and over. The mapping from a
// text to its key and MO is a pure function of the text, so a remembered
// answer never goes stale: it needs no version, and no write — an append,
// a rebuild, a re-registration — can make it wrong. Aliases live in LRU
// shards of their own, charged against the cache's byte bound; they are
// not entries, and resolving one is neither a hit nor a miss.

// aliasShare sets the part of a cache's byte bound its aliases may hold:
// 1/aliasShare. An alias costs its text, key and MO name plus entrySize,
// a few hundred bytes for a dashboard query.
const aliasShare = 8

// alias is an alias entry's value: the key and MO QueryKey gave its text.
type alias struct {
	key, mo string
}

// Resolve is QueryKey remembered: the canonical key of src and the MO it
// addresses. A text resolved before is answered by a lookup, without
// parsing; any other is keyed by QueryKey, and remembered when that
// succeeds. An unparseable text is never remembered, so its error comes
// from the parser every time.
func (c *Cache) Resolve(src string) (key, mo string, err error) {
	s := &c.aliases[maphash.String(c.seed, src)&(numShards-1)]
	s.mu.Lock()
	if e, ok := s.entries[src]; ok {
		s.touch(e)
		a := e.val.(*alias)
		s.mu.Unlock()
		return a.key, a.mo, nil
	}
	s.mu.Unlock()
	key, mo, err = QueryKey(src)
	if err != nil {
		return "", "", err
	}
	// A private copy: src may be a slice of a larger request body that
	// the alias must not keep alive.
	text := strings.Clone(src)
	size := int64(len(text)+len(key)+len(mo)) + entrySize
	s.mu.Lock()
	stored, freed, _ := s.put(text, Version{}, &alias{key: key, mo: mo}, size)
	s.mu.Unlock()
	if stored {
		mBytesAdmitted.Add(size)
		gBytes.Add(size - freed)
	}
	return key, mo, nil
}
