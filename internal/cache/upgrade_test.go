package cache

import (
	"sync"
	"testing"
)

// TestUpgradeableRetainedOnMismatch: a version-mismatched Get drops a
// plain entry, but an upgradeable one is retained (without KeepStale)
// so the serving layer can inspect and repair it.
func TestUpgradeableRetainedOnMismatch(t *testing.T) {
	c := New(1 << 20)
	v1 := Version{Gen: 1, Epoch: 1}
	v2 := Version{Gen: 1, Epoch: 2}

	c.Put("plain", v1, "a", 8)
	c.PutUpgradeable("up", v1, "b", 8)

	if _, ok := c.Get("plain", v2); ok {
		t.Fatal("stale plain entry served")
	}
	if _, ok := c.Get("up", v2); ok {
		t.Fatal("stale upgradeable entry served as fresh")
	}
	if _, _, _, ok := c.GetForUpgrade("plain"); ok {
		t.Fatal("plain entry survived a mismatched Get")
	}
	val, ver, up, ok := c.GetForUpgrade("up")
	if !ok || !up || ver != v1 || val != "b" {
		t.Fatalf("upgradeable entry not retained intact: %v %v %v %v", val, ver, up, ok)
	}
	// Still fresh-servable at its own version.
	if v, ok := c.Get("up", v1); !ok || v != "b" {
		t.Fatal("retained entry lost its own version")
	}
}

// TestUpgradeCAS: Upgrade replaces only when the entry is still at
// oldVer; the swapped entry serves fresh at newVer, stays upgradeable,
// and a stale oldVer CAS is refused without touching the entry.
func TestUpgradeCAS(t *testing.T) {
	c := New(1 << 20)
	v1 := Version{Gen: 1, Epoch: 1}
	v2 := Version{Gen: 1, Epoch: 2}
	v3 := Version{Gen: 1, Epoch: 3}

	c.PutUpgradeable("k", v1, "old", 8)
	if !c.Upgrade("k", v1, v2, "merged", 8) {
		t.Fatal("CAS at the stored version refused")
	}
	if v, ok := c.Get("k", v2); !ok || v != "merged" {
		t.Fatal("upgraded entry not served at its new version")
	}
	if _, _, up, ok := c.GetForUpgrade("k"); !ok || !up {
		t.Fatal("upgrade dropped the upgradeable mark")
	}
	// A competing upgrade that folded from v1 loses the race: refused,
	// entry untouched.
	if c.Upgrade("k", v1, v3, "loser", 8) {
		t.Fatal("CAS succeeded against a moved version")
	}
	if v, ok := c.Get("k", v2); !ok || v != "merged" {
		t.Fatal("failed CAS disturbed the entry")
	}
	if c.Upgrade("absent", v1, v2, "x", 8) {
		t.Fatal("CAS succeeded on an absent key")
	}
	st := c.Stats()
	if st.Upgrades != 1 {
		t.Fatalf("Stats.Upgrades = %d, want 1 (refused CASes must not count)", st.Upgrades)
	}
}

// TestUpgradeRacesGet runs upgrades against hits on the same entry: a hit
// returns the value stored at the version it asked for, never the one an
// upgrade is swapping in (and go test -race checks the accesses).
func TestUpgradeRacesGet(t *testing.T) {
	c := New(1 << 20)
	c.PutUpgradeable("k", Version{}, uint64(0), 8)
	const n = 2000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); i < n; i++ {
			c.Upgrade("k", Version{Epoch: i}, Version{Epoch: i + 1}, i+1, 8)
		}
	}()
	for i := 0; i < n; i++ {
		_, ver, _, _ := c.GetForUpgrade("k")
		if v, ok := c.Get("k", ver); ok && v != any(ver.Epoch) {
			t.Errorf("hit at epoch %d returned the value of epoch %v", ver.Epoch, v)
			break
		}
	}
	wg.Wait()
}

// TestUpgradeOversizedDrops: a merged value that outgrew a shard is
// dropped (same rule as Put) rather than wedging the shard; the CAS
// reports false and the entry is gone.
func TestUpgradeOversizedDrops(t *testing.T) {
	c := New(numShards * 1024)
	v1 := Version{Gen: 1, Epoch: 1}
	v2 := Version{Gen: 1, Epoch: 2}
	c.PutUpgradeable("k", v1, "small", 8)
	if c.Upgrade("k", v1, v2, "huge", 1<<20) {
		t.Fatal("oversized upgrade stored")
	}
	if _, _, _, ok := c.GetForUpgrade("k"); ok {
		t.Fatal("oversized upgrade left the stale entry resident")
	}
}

// TestDemote: after a terminal upgrade failure the serving layer clears
// the mark; the entry regains plain drop-on-mismatch semantics.
func TestDemote(t *testing.T) {
	c := New(1 << 20)
	v1 := Version{Gen: 1, Epoch: 1}
	v2 := Version{Gen: 2, Epoch: 1}

	c.PutUpgradeable("k", v1, "x", 8)
	c.Demote("k", v2) // wrong version: no-op
	if _, _, up, _ := c.GetForUpgrade("k"); !up {
		t.Fatal("Demote at the wrong version cleared the mark")
	}
	c.Demote("k", v1)
	if _, _, up, _ := c.GetForUpgrade("k"); up {
		t.Fatal("mark survived Demote")
	}
	if _, ok := c.Get("k", v2); ok {
		t.Fatal("demoted stale entry served")
	}
	if _, _, _, ok := c.GetForUpgrade("k"); ok {
		t.Fatal("demoted entry retained after a mismatched Get")
	}
}

// TestPlainPutClearsUpgradeable: replacing an upgradeable entry with a
// plain Put clears the mark — the new value carries no partials, so
// retaining it on mismatch would hand the serving layer nothing to
// repair with.
func TestPlainPutClearsUpgradeable(t *testing.T) {
	c := New(1 << 20)
	v1 := Version{Gen: 1, Epoch: 1}
	v2 := Version{Gen: 1, Epoch: 2}
	c.PutUpgradeable("k", v1, "a", 8)
	c.Put("k", v2, "b", 8)
	if _, _, up, ok := c.GetForUpgrade("k"); !ok || up {
		t.Fatalf("plain Put did not clear the mark (up=%v ok=%v)", up, ok)
	}
}

// TestUpgradeStatsDistinctFromHits: an upgrade is not a hit and not a
// miss in the counters — the interplay tests at the serve layer rely on
// the distinction to prove no silent fallback inflates the hit rate.
func TestUpgradeStatsDistinctFromHits(t *testing.T) {
	c := New(1 << 20)
	v1 := Version{Gen: 1, Epoch: 1}
	v2 := Version{Gen: 1, Epoch: 2}
	c.PutUpgradeable("k", v1, "a", 8)
	if _, ok := c.Get("k", v1); !ok {
		t.Fatal("fresh get missed")
	}
	c.Get("k", v2) // mismatch: counted as a miss, entry retained
	c.Upgrade("k", v1, v2, "b", 8)
	if _, ok := c.Get("k", v2); !ok {
		t.Fatal("post-upgrade get missed")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Upgrades != 1 {
		t.Fatalf("stats = hits %d / misses %d / upgrades %d, want 2/1/1",
			st.Hits, st.Misses, st.Upgrades)
	}
}
