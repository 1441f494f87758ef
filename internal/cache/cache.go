// Package cache is the versioned query-result cache: a sharded,
// size-bounded LRU whose entries are validated by version comparison at
// lookup rather than purged eagerly on writes. A writer (an appended
// fact, an engine rebuild, a catalog re-registration) only has to make
// the current version move; every entry filled under an older version
// then fails its next lookup and is dropped on the spot. That keeps the
// write path O(1) — no scan over cached keys, no registry of which keys
// depend on which data — at the price of stale entries occupying space
// until they are looked up or evicted, which the byte bound caps.
//
// The package also provides the single-flight group (flight.go) the
// serving layer uses so a thundering herd of identical misses computes
// the result once, the canonical cache-key encoder (key.go) that
// collapses semantically identical query texts onto one key, and the
// cache's memory of that encoder (alias.go): a query text it has keyed
// before resolves to its key by a lookup, without being parsed again.
// The values are the serving layer's; its entries carry their encoded
// response body next to the result, so a hit is a lookup and a write.
package cache

import (
	"hash/maphash"
	"sync"
	"time"

	"mddm/internal/obs"
)

// Process-wide cache metrics, shared by every Cache instance (per-cache
// numbers are available from Stats). Invalidation here means a lookup
// that found the key but with a stale version — the epoch-comparison
// form of invalidation this package exists for; such lookups also count
// as misses, so hits+misses is the full lookup traffic.
var (
	mHits = obs.NewCounter("mddm_cache_hits_total",
		"Result-cache lookups answered from a current-version entry.")
	mMisses = obs.NewCounter("mddm_cache_misses_total",
		"Result-cache lookups not answered (absent key or stale version).")
	mEvictions = obs.NewCounter("mddm_cache_evictions_total",
		"Result-cache entries evicted to fit the byte bound (includes oversized rejections).")
	mInvalidations = obs.NewCounter("mddm_cache_invalidations_total",
		"Result-cache entries dropped at lookup because their version was stale.")
	mBytesAdmitted = obs.NewCounter("mddm_cache_bytes_total",
		"Bytes admitted into result caches, cumulative (current residency is mddm_cache_bytes).")
	gBytes = obs.NewGauge("mddm_cache_bytes",
		"Bytes currently resident across result caches.")
)

// Version identifies the state of the data a cached result was computed
// from. Lookups require exact equality — versions are identities, not
// ordered clocks, so a re-registered catalog entry (Gen moves) and an
// appended fact or rebuilt engine (Epoch moves) both invalidate without
// the cache knowing which happened.
type Version struct {
	// Gen is the catalog registration generation of the MO the query
	// addresses.
	Gen uint64
	// Epoch is the storage engine's mutation epoch (storage.Engine.Epoch),
	// or 0 when no engine exists for the MO yet.
	Epoch uint64
}

// numShards spreads lock contention; power of two so the pick is a mask.
const numShards = 16

// entrySize is the accounted overhead of one entry beyond the
// caller-declared payload bytes (map slot, pointers, version).
const entrySize = 96

// Cache is a sharded, size-bounded, version-validated LRU. The zero
// value is not usable; construct with New. All methods are safe for
// concurrent use.
type Cache struct {
	seed   maphash.Seed
	shards [numShards]shard
	// aliases are the query texts Resolve has keyed, each mapped to its
	// canonical key and MO (alias.go): LRU shards of their own, bounded
	// by a 1/aliasShare part of the byte bound the result shards share the
	// rest of.
	aliases [numShards]shard

	// keepStale, when positive, makes Get retain (not drop) a
	// version-mismatched entry younger than this bound, so GetStale can
	// still serve it to a degraded reader. Set via KeepStale before
	// concurrent use.
	keepStale time.Duration

	mu    sync.Mutex // guards the Stats fields below
	stats Stats
}

// KeepStale enables stale retention: Get normally drops an entry whose
// version mismatches (lazy invalidation), which would leave nothing for
// GetStale's degraded readers. With a positive bound, mismatched entries
// younger than d stay resident (the lookup is still a miss); older ones
// are dropped as usual, and the LRU byte bound caps residency either
// way. Call before the cache sees concurrent use.
func (c *Cache) KeepStale(d time.Duration) { c.keepStale = d }

// Stats is one cache's own counters (the obs metrics aggregate across
// caches).
type Stats struct {
	// Hits counts lookups served from a current-version entry.
	Hits int64
	// Misses counts lookups not served: absent keys plus invalidations.
	Misses int64
	// Invalidations counts entries dropped at lookup for a stale version.
	Invalidations int64
	// Upgrades counts entries repaired in place by Upgrade — a delta
	// merge made a version-stale entry current instead of dropping it.
	// Distinct from Hits: the lookup that triggered the upgrade was a
	// miss, and the serving layer reports it separately.
	Upgrades int64
	// Evictions counts entries removed to satisfy the byte bound.
	Evictions int64
	// Bytes is the current resident payload+overhead size, query-text
	// aliases included.
	Bytes int64
	// Entries is the current result entry count (aliases are not
	// entries).
	Entries int64
}

type shard struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	entries  map[string]*entry
	// LRU list: front.next is most recent, front.prev is least recent
	// (front is a sentinel, so insert/remove never branch on nil).
	front entry
}

type entry struct {
	key        string
	ver        Version
	val        any
	bytes      int64
	at         time.Time // when the entry was stored; GetStale's age basis
	prev, next *entry
	// upgradeable marks an entry whose value carries mergeable partials:
	// Get retains it on a version mismatch (instead of dropping) so the
	// serving layer can repair it with a delta merge — see upgrade.go.
	upgradeable bool
}

// New creates a cache bounded to roughly maxBytes of declared entry
// sizes plus bookkeeping overhead, query-text aliases included: they get
// a 1/aliasShare part of it, results the rest. Each part is divided
// evenly over its shards, so one entry can occupy at most
// (maxBytes − maxBytes/aliasShare)/16; larger entries are rejected by Put
// (counted as evictions) rather than allowed to wedge a shard. maxBytes
// must be positive.
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		panic("cache: non-positive byte bound")
	}
	c := &Cache{seed: maphash.MakeSeed()}
	aliasBytes := maxBytes / aliasShare
	initShards(&c.shards, maxBytes-aliasBytes)
	initShards(&c.aliases, aliasBytes)
	return c
}

// initShards divides maxBytes evenly over shards and makes them empty.
func initShards(shards *[numShards]shard, maxBytes int64) {
	per := maxBytes / numShards
	if per < entrySize {
		per = entrySize
	}
	for i := range shards {
		s := &shards[i]
		s.maxBytes = per
		s.entries = map[string]*entry{}
		s.front.next = &s.front
		s.front.prev = &s.front
	}
}

func (c *Cache) shard(key string) *shard {
	return &c.shards[maphash.String(c.seed, key)&(numShards-1)]
}

// Get returns the value cached under key if its version equals ver. A
// present entry with any other version is stale (or was filled under a
// version that has since moved on): it is removed and the lookup is a
// miss — this is the append-driven invalidation path, no eager purge
// ever runs.
func (c *Cache) Get(key string, ver Version) (any, bool) {
	s := c.shard(key)
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok && e.ver == ver {
		// Move to the front of the LRU order. The value is read under the
		// lock: Upgrade replaces it in place.
		s.touch(e)
		v := e.val
		s.mu.Unlock()
		mHits.Inc()
		c.count(func(st *Stats) { st.Hits++ })
		return v, true
	}
	invalidated := false
	var freed int64
	if ok {
		if e.upgradeable || (c.keepStale > 0 && time.Since(e.at) <= c.keepStale) {
			// Retained: an upgradeable entry stays for the serving layer's
			// delta-merge repair (GetForUpgrade/Upgrade); a KeepStale entry
			// stays for GetStale's degraded readers until it ages out.
			// Either way the lookup is a miss and nothing is dropped.
			s.mu.Unlock()
			mMisses.Inc()
			c.count(func(st *Stats) { st.Misses++ })
			return nil, false
		}
		freed = e.bytes
		s.remove(e)
		invalidated = true
	}
	s.mu.Unlock()
	if invalidated {
		mInvalidations.Inc()
		gBytes.Add(-freed)
	}
	mMisses.Inc()
	c.count(func(st *Stats) {
		st.Misses++
		if invalidated {
			st.Invalidations++
		}
	})
	return nil, false
}

// GetStale returns whatever is cached under key regardless of version,
// with its age and whether its version equals ver. It is the degraded
// read for load shedding: a shed request may prefer a bounded-staleness
// answer over a 429, so a version mismatch here must NOT drop the entry
// the way Get does — the entry stays for the next degraded reader, and
// nothing is counted as a hit, miss, or invalidation (degraded serves
// have their own metric in the serving layer). The LRU position is not
// promoted either: a stale entry earns residency by fresh use, not by
// being a last resort.
func (c *Cache) GetStale(key string, ver Version) (val any, age time.Duration, fresh bool, ok bool) {
	s := c.shard(key)
	s.mu.Lock()
	e, present := s.entries[key]
	if !present {
		s.mu.Unlock()
		return nil, 0, false, false
	}
	val, age, fresh = e.val, time.Since(e.at), e.ver == ver
	s.mu.Unlock()
	return val, age, fresh, true
}

// Put stores val under key at version ver, evicting least-recently-used
// entries until the shard fits its byte share again. bytes is the
// caller's estimate of the payload size; entries whose accounted size
// exceeds a whole shard are not admitted (counted as an eviction).
// Storing an existing key replaces its value and version.
func (c *Cache) Put(key string, ver Version, val any, bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	size := bytes + int64(len(key)) + entrySize
	s := c.shard(key)
	s.mu.Lock()
	ok, freed, evicted := s.put(key, ver, val, size)
	s.mu.Unlock()
	if !ok {
		// Too big to ever fit; admitting it would evict the whole shard
		// for an entry the next Put would evict right back.
		mEvictions.Inc()
		c.count(func(st *Stats) { st.Evictions++ })
		return
	}
	mBytesAdmitted.Add(size)
	gBytes.Add(size - freed)
	if evicted > 0 {
		mEvictions.Add(int64(evicted))
		c.count(func(st *Stats) { st.Evictions += int64(evicted) })
	}
}

// put stores val under key at an accounted size, replacing any entry the
// key had and evicting from the LRU tail until the shard fits, and
// reports the bytes that left and the entries evicted. An entry larger
// than the whole shard is not stored (ok false) and nothing changes. The
// caller holds s.mu.
func (s *shard) put(key string, ver Version, val any, size int64) (ok bool, freed int64, evicted int) {
	if size > s.maxBytes {
		return false, 0, 0
	}
	if old, found := s.entries[key]; found {
		freed += old.bytes
		s.remove(old)
	}
	for s.bytes+size > s.maxBytes {
		lru := s.front.prev
		freed += lru.bytes
		s.remove(lru)
		evicted++
	}
	e := &entry{key: key, ver: ver, val: val, bytes: size, at: time.Now()}
	s.entries[key] = e
	e.linkFront(&s.front)
	s.bytes += size
	return true, freed, evicted
}

// Len returns the current number of resident result entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Stats snapshots this cache's counters and current residency.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	st := c.stats
	c.mu.Unlock()
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Bytes += s.bytes
		st.Entries += int64(len(s.entries))
		s.mu.Unlock()
		a := &c.aliases[i]
		a.mu.Lock()
		st.Bytes += a.bytes
		a.mu.Unlock()
	}
	return st
}

func (c *Cache) count(f func(*Stats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}

// touch moves an entry to the front of the LRU order; the caller holds
// s.mu.
func (s *shard) touch(e *entry) {
	e.unlink()
	e.linkFront(&s.front)
}

// remove unlinks and deletes an entry; the caller holds s.mu.
func (s *shard) remove(e *entry) {
	e.unlink()
	delete(s.entries, e.key)
	s.bytes -= e.bytes
}

func (e *entry) unlink() {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

func (e *entry) linkFront(front *entry) {
	e.prev = front
	e.next = front.next
	front.next.prev = e
	front.next = e
}
