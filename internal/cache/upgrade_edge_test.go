package cache

import (
	"fmt"
	"testing"
)

// sameShardKey returns a key distinct from anchor that hashes to
// anchor's shard, so byte-bound interactions between the two entries are
// deterministic.
func sameShardKey(c *Cache, anchor string) string {
	target := c.shard(anchor)
	for i := 0; ; i++ {
		k := fmt.Sprintf("peer%d", i)
		if k != anchor && c.shard(k) == target {
			return k
		}
	}
}

// TestUpgradeNegativeBytes: a negative size estimate is clamped, not
// allowed to shrink the shard's accounted bytes below reality.
func TestUpgradeNegativeBytes(t *testing.T) {
	c := New(1 << 20)
	v1 := Version{Gen: 1, Epoch: 1}
	v2 := Version{Gen: 1, Epoch: 2}
	c.PutUpgradeable("k", v1, "old", 64)
	if !c.Upgrade("k", v1, v2, "merged", -5) {
		t.Fatal("negative-byte upgrade refused")
	}
	if v, ok := c.Get("k", v2); !ok || v != "merged" {
		t.Fatalf("upgraded entry not served: %v %v", v, ok)
	}
}

// TestUpgradeGrowthEvicts: an upgrade that grows the entry past the
// shard's byte bound evicts from the LRU tail — never the just-upgraded
// entry, which the swap moved to the front.
func TestUpgradeGrowthEvicts(t *testing.T) {
	// 16 result shards: each holds at most 896 accounted bytes.
	c := New(16 * 1024)
	v1 := Version{Gen: 1, Epoch: 1}
	v2 := Version{Gen: 1, Epoch: 2}

	victim := sameShardKey(c, "up")
	c.Put(victim, v1, "cold", 300)
	c.PutUpgradeable("up", v1, "warm", 300)

	ev0 := c.Stats().Evictions
	// 300+96+overhead twice fits 896; growing "up" to 600 pushes the
	// shard over and must evict the colder victim.
	if !c.Upgrade("up", v1, v2, "merged", 600) {
		t.Fatal("growth upgrade refused")
	}
	if v, ok := c.Get("up", v2); !ok || v != "merged" {
		t.Fatalf("upgraded entry evicted instead of the LRU tail: %v %v", v, ok)
	}
	if _, _, _, ok := c.GetForUpgrade(victim); ok {
		t.Fatal("LRU victim survived the growth upgrade")
	}
	if got := c.Stats().Evictions - ev0; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
}
