package cache

import (
	"time"

	"mddm/internal/obs"
)

// This file extends the versioned cache with *upgradeable* entries —
// the cache half of delta-merge incremental maintenance. A normal entry
// whose version mismatches at lookup is dropped (lazy invalidation); an
// upgradeable entry is retained instead, because its value carries
// mergeable partial-aggregate state the serving layer can repair: fold
// only the facts appended since the entry's version and swap the merged
// value in under the current version (Upgrade). The cache itself never
// interprets the value — eligibility, the delta fold, and the
// gen-vs-epoch distinction live in the serving layer; this layer only
// provides retain/inspect/replace primitives with exact version checks.

var mUpgrades = obs.NewCounter("mddm_cache_upgrades_total",
	"Result-cache entries repaired in place by a delta merge (Upgrade calls that replaced a stale entry).")

// PutUpgradeable is Put for a value that carries mergeable partials: the
// entry is additionally marked upgradeable, so a later version mismatch
// retains it for delta-merge repair instead of dropping it. A plain Put
// to the same key clears the mark (the replacement value has no
// partials).
func (c *Cache) PutUpgradeable(key string, ver Version, val any, bytes int64) {
	c.Put(key, ver, val, bytes)
	s := c.shard(key)
	s.mu.Lock()
	// Put may have rejected the entry as oversized; only mark what is
	// actually resident at the version we just stored.
	if e, ok := s.entries[key]; ok && e.ver == ver {
		e.upgradeable = true
	}
	s.mu.Unlock()
}

// GetForUpgrade returns the resident entry under key regardless of
// version, with its stored version and upgradeable mark. Like GetStale
// it counts nothing, drops nothing, and does not promote the LRU
// position: it is the serving layer's inspection read before deciding
// whether a delta merge can repair the entry.
func (c *Cache) GetForUpgrade(key string) (val any, ver Version, upgradeable bool, ok bool) {
	s := c.shard(key)
	s.mu.Lock()
	e, present := s.entries[key]
	if !present {
		s.mu.Unlock()
		return nil, Version{}, false, false
	}
	val, ver, upgradeable = e.val, e.ver, e.upgradeable
	s.mu.Unlock()
	return val, ver, upgradeable, true
}

// Upgrade atomically replaces the entry under key — provided it is still
// at oldVer — with the delta-merged value at newVer, refreshing its age
// and LRU position as a Put would. The compare-and-swap guards the race
// with a concurrent fill or competing upgrade: if the entry moved on,
// nothing is stored and Upgrade reports false (the caller's merged
// result is still a valid answer for the version it folded to — only
// the cache write is skipped). The upgraded entry stays upgradeable, so
// sustained appends keep repairing it in place.
func (c *Cache) Upgrade(key string, oldVer, newVer Version, val any, bytes int64) bool {
	if bytes < 0 {
		bytes = 0
	}
	size := bytes + int64(len(key)) + entrySize
	s := c.shard(key)
	s.mu.Lock()
	e, ok := s.entries[key]
	if !ok || e.ver != oldVer {
		s.mu.Unlock()
		return false
	}
	if size > s.maxBytes {
		// The merged value outgrew a whole shard (same rule as Put): drop
		// the entry rather than wedge the shard.
		freed := e.bytes
		s.remove(e)
		s.mu.Unlock()
		mEvictions.Inc()
		gBytes.Add(-freed)
		c.count(func(st *Stats) { st.Evictions++ })
		return false
	}
	delta := size - e.bytes
	e.ver, e.val, e.bytes, e.at = newVer, val, size, time.Now()
	s.touch(e)
	s.bytes += delta
	evicted := 0
	var freed int64
	// The upgraded entry is at the LRU front and fits a shard by the check
	// above, so this loop always terminates before reaching it.
	for s.bytes > s.maxBytes {
		lru := s.front.prev
		freed += lru.bytes
		s.remove(lru)
		evicted++
	}
	s.mu.Unlock()
	if delta > 0 {
		mBytesAdmitted.Add(delta)
	}
	gBytes.Add(delta - freed)
	mUpgrades.Inc()
	c.count(func(st *Stats) {
		st.Upgrades++
		st.Evictions += int64(evicted)
	})
	if evicted > 0 {
		mEvictions.Add(int64(evicted))
	}
	return true
}

// Demote clears the upgradeable mark on the entry under key if it is
// still at ver: the serving layer calls it after a terminal upgrade
// failure (the catalog generation moved, or the entry's epoch fell out
// of the engine's journal) so the entry regains plain drop semantics —
// the next Get invalidates it normally, and KeepStale aging applies
// unchanged.
func (c *Cache) Demote(key string, ver Version) {
	s := c.shard(key)
	s.mu.Lock()
	if e, ok := s.entries[key]; ok && e.ver == ver {
		e.upgradeable = false
	}
	s.mu.Unlock()
}
