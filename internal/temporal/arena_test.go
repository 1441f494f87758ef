package temporal

import (
	"sync"
	"testing"
)

func TestArenaRoundTrip(t *testing.T) {
	many := make([]Interval, 50)
	for i := range many {
		many[i] = MustNewInterval(Chronon(10*i), Chronon(10*i+3))
	}
	cases := []struct {
		name  string
		e     Element
		space int // arena intervals the element occupies
	}{
		{"empty", Empty(), 0},
		{"all-time", AlwaysElement(), 0},
		{"all-time, built", NewElement(Always()), 0},
		{"one interval", Single(5, 20), 1},
		{"open-ended", NewElement(MustNewInterval(100, Now)), 1},
		{"many intervals", NewElement(many...), len(many)},
	}
	var a Arena
	runs := make([]Run, len(cases))
	for i, c := range cases {
		before := a.Len()
		runs[i] = a.Put(c.e)
		if got := a.Len() - before; got != c.space || runs[i].Len() != c.space {
			t.Errorf("%s: Put took %d intervals, run length %d, want %d", c.name, got, runs[i].Len(), c.space)
		}
	}
	for i, c := range cases {
		got := a.Get(runs[i])
		if !got.Equal(c.e) || !got.Valid() {
			t.Errorf("%s: Get(Put(e)) = %v, want %v", c.name, got, c.e)
		}
		if c.e.isAlways() != got.isAlways() {
			t.Errorf("%s: all-time-ness lost", c.name)
		}
	}
	if a.Get(Run{}).IsEmpty() != true {
		t.Error("the zero run must be the empty element")
	}
	if testing.AllocsPerRun(100, func() { a.Get(runs[len(runs)-1]) }) != 0 {
		t.Error("Get allocates")
	}
}

// TestArenaWindowsAreClamped pins that nothing done with an element read
// from an arena reaches the arena, and nothing the arena stores later
// reaches what was read before.
func TestArenaWindowsAreClamped(t *testing.T) {
	var a Arena
	a.Grow(64) // spare capacity after every run, where an unclamped append would land
	r1 := a.Put(NewElement(MustNewInterval(0, 1), MustNewInterval(5, 6)))
	e1 := a.Get(r1)
	if cap(e1.ivs) != len(e1.ivs) {
		t.Fatalf("window capacity %d over length %d", cap(e1.ivs), len(e1.ivs))
	}

	// Appending to the element's own intervals or to its Intervals copy
	// lands in fresh arrays.
	grown := append(e1.ivs, MustNewInterval(50, 60))
	copied := append(e1.Intervals(), MustNewInterval(70, 80))
	copied[0] = MustNewInterval(-9, -8)
	e2 := Single(30, 40)
	r2 := a.Put(e2)
	if !a.Get(r2).Equal(e2) || !a.Get(r1).Equal(e1) {
		t.Fatal("an append to a read element reached the arena")
	}
	if grown[2] != MustNewInterval(50, 60) {
		t.Fatal("a later Put reached an element's appended copy")
	}

	// Neither derived elements nor later Puts, including the one that
	// moves the arena to a larger array, change what was read.
	want := e1.Intervals()
	_ = e1.Union(e2)
	_ = e1.Intersect(e2)
	_ = e1.Difference(Single(0, 0))
	for i := 0; i < 200; i++ {
		a.Put(Single(Chronon(1000+2*i), Chronon(1000+2*i)))
	}
	got := e1.Intervals()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || !a.Get(r1).Equal(e1) {
		t.Fatalf("element read before later Puts changed: %v, want %v", got, want)
	}
}

// TestArenaRace holds elements in reader goroutines while a writer
// appends 10 k runs to the arena; under -race it shows the readers and
// the writer never touch the same memory.
func TestArenaRace(t *testing.T) {
	var a Arena
	held := make([]Element, 8)
	for i := range held {
		held[i] = a.Get(a.Put(NewElement(MustNewInterval(Chronon(10*i), Chronon(10*i+2)), MustNewInterval(Chronon(10*i+5), Chronon(10*i+6)))))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := range held {
		wg.Add(1)
		go func(e Element, i int) {
			defer wg.Done()
			want := Chronon(10 * i)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if s, _ := e.Start(); s != want || e.Duration(0) != 5 || !e.Contains(want+5, 0) {
					t.Errorf("reader %d saw %v", i, e)
					return
				}
			}
		}(held[i], i)
	}
	for i := 0; i < 10000; i++ {
		c := Chronon(1000 + 3*i)
		if r := a.Put(NewElement(MustNewInterval(c, c+1))); a.Get(r).Duration(0) != 2 {
			t.Fatalf("run %d reads back wrong", i)
		}
	}
	close(stop)
	wg.Wait()
}
