package cache

import (
	"fmt"
	"testing"
)

// TestResolveAliasAccounting: a text Resolve keyed is remembered, its
// bytes show in Stats.Bytes, residency stays under the bound as texts
// overflow the alias shards, and no resolution — keyed, remembered or
// rejected — moves a hit, miss, eviction or entry count.
func TestResolveAliasAccounting(t *testing.T) {
	const bound = 64 << 10
	c := New(bound)
	src := `SELECT SETCOUNT(*) AS N FROM patients GROUP BY Diagnosis."Diagnosis Group"`
	key, mo, err := c.Resolve(src)
	if err != nil {
		t.Fatal(err)
	}
	wantKey, wantMO, _ := QueryKey(src)
	if key != wantKey || mo != wantMO {
		t.Fatalf("Resolve = %q, %q; QueryKey = %q, %q", key, mo, wantKey, wantMO)
	}
	if !remembered(c, src) {
		t.Fatal("a keyed text was not remembered")
	}
	if got, want := c.Stats().Bytes, int64(len(src)+len(key)+len(mo))+entrySize; got != want {
		t.Fatalf("Stats.Bytes = %d after one alias, want %d", got, want)
	}
	if _, _, err := c.Resolve("SELECT ((("); err == nil {
		t.Fatal("an unparseable text resolved")
	}
	if remembered(c, "SELECT (((") {
		t.Fatal("an unparseable text was remembered")
	}

	for i := 0; i < 2000; i++ {
		src := fmt.Sprintf(`SELECT SETCOUNT(*) AS N%d FROM patients`, i)
		if _, _, err := c.Resolve(src); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Resolve(src); err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.Bytes > bound/aliasShare {
			t.Fatalf("alias residency %d exceeds its %d share of the bound", st.Bytes, bound/aliasShare)
		}
	}
	if remembered(c, src) {
		t.Fatal("the least recently resolved text survived 2000 newer ones")
	}
	if st := c.Stats(); st != (Stats{Bytes: st.Bytes}) || st.Bytes == 0 {
		t.Fatalf("stats %+v: aliases moved a counter or hold no bytes", st)
	}
}

// remembered reports whether src has an alias, without touching it.
func remembered(c *Cache, src string) bool {
	for i := range c.aliases {
		s := &c.aliases[i]
		s.mu.Lock()
		_, ok := s.entries[src]
		s.mu.Unlock()
		if ok {
			return true
		}
	}
	return false
}
