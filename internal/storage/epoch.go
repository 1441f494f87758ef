package storage

import (
	"sort"
	"sync/atomic"
)

// epochSource issues mutation epochs process-wide. Drawing every
// engine's epochs from one monotone source — rather than a per-engine
// counter — means a rebuilt engine can never reuse an epoch its
// predecessor handed out: a cache entry versioned against the old
// engine stays invalid against the new one even if both have seen the
// same number of mutations.
var epochSource atomic.Uint64

// nextEpoch returns a fresh, never-before-issued epoch (always > 0, so
// callers can use 0 as the "no engine" sentinel).
func nextEpoch() uint64 { return epochSource.Add(1) }

// maxEpochWindows bounds the per-engine epoch journal. 4096 windows is
// hours of sustained appends between two lookups of the same cache
// entry; an entry older than that falls back to invalidation, which is
// always sound.
const maxEpochWindows = 4096

// epochWindow records that when the engine's epoch was `epoch`, exactly
// the first `facts` dense indices existed. Because the only mutation an
// engine survives is AppendFact — builds and restores create fresh
// engines — the fact range [w.facts, len(e.order)) is precisely what was
// appended after epoch w.epoch: the delta a mergeable cached result
// needs to fold to become current.
type epochWindow struct {
	epoch uint64
	facts int
}

// Epoch returns the engine's current mutation epoch. The epoch moves to
// a fresh process-unique value when the engine is built and after every
// successful AppendFact; readers comparing epochs across those events
// (the result cache's append-driven invalidation) therefore observe a
// change for every mutation, with no ordering assumptions beyond
// equality.
func (e *Engine) Epoch() uint64 { return e.epoch.Load() }

// EpochFacts returns the current epoch and fact count as one consistent
// observation (a lock-free Epoch() then NumFacts() could straddle an
// append). Delta folds bound their range with the `facts` value and tag
// the merged result with the matching `epoch`.
func (e *Engine) EpochFacts() (epoch uint64, facts int) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.epoch.Load(), len(e.order)
}

// bumpEpoch moves the engine to a fresh epoch and journals the window;
// called with the write lock held at the end of each successful
// mutation.
func (e *Engine) bumpEpoch() {
	e.epoch.Store(nextEpoch())
	e.windows = append(e.windows, epochWindow{epoch: e.epoch.Load(), facts: len(e.order)})
	if len(e.windows) > maxEpochWindows {
		// Trim in bulk so sustained appends amortize the copy.
		keep := maxEpochWindows / 2
		e.windows = append(e.windows[:0], e.windows[len(e.windows)-keep:]...)
	}
}

// DeltaRange resolves the append-only gap between oldEpoch and the
// engine's current state: the dense fact range [lo, hi) appended since
// oldEpoch, plus the epoch that exactly covers [0, hi). ok=false means
// oldEpoch is unknown to this engine and no sound delta exists — the
// caller must fall back to invalidation. The three values are one
// consistent observation under the read lock.
func (e *Engine) DeltaRange(oldEpoch uint64) (lo, hi int, cur uint64, ok bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	i := sort.Search(len(e.windows), func(i int) bool { return e.windows[i].epoch >= oldEpoch })
	if i == len(e.windows) || e.windows[i].epoch != oldEpoch {
		return 0, 0, 0, false
	}
	return e.windows[i].facts, len(e.order), e.epoch.Load(), true
}
