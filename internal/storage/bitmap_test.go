package storage

import (
	"fmt"
	"math/rand"
	"testing"
)

func randomBitmap(r *rand.Rand, n int, density float64) *Bitmap {
	bm := NewBitmap(n)
	for i := 0; i < n; i++ {
		if r.Float64() < density {
			bm.Set(i)
		}
	}
	return bm
}

func TestBitmapRangeOps(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 63, 64, 65, 200, 1000} {
		a := randomBitmap(r, n, 0.3)
		b := randomBitmap(r, n, 0.6)
		// Ranges deliberately cross word boundaries and the universe edge.
		ranges := [][2]int{{0, n}, {-5, n + 7}, {1, 63}, {63, 65}, {7, 130}, {n / 2, n}, {n, n}, {5, 5}}
		for _, lh := range ranges {
			lo, hi := lh[0], lh[1]
			wantCount, wantAnd := 0, 0
			var wantIdx []int
			for i := 0; i < n; i++ {
				if i < lo || i >= hi || !a.Has(i) {
					continue
				}
				wantCount++
				wantIdx = append(wantIdx, i)
				if b.Has(i) {
					wantAnd++
				}
			}
			if got := a.CountRange(lo, hi); got != wantCount {
				t.Errorf("n=%d CountRange(%d,%d) = %d, want %d", n, lo, hi, got, wantCount)
			}
			if got := a.AndCountRange(b, lo, hi); got != wantAnd {
				t.Errorf("n=%d AndCountRange(%d,%d) = %d, want %d", n, lo, hi, got, wantAnd)
			}
			var gotIdx []int
			a.IterateRange(lo, hi, func(i int) bool {
				gotIdx = append(gotIdx, i)
				return true
			})
			if fmt.Sprint(gotIdx) != fmt.Sprint(wantIdx) {
				t.Errorf("n=%d IterateRange(%d,%d) = %v, want %v", n, lo, hi, gotIdx, wantIdx)
			}
		}
		// Word-sized range counts must tile the full popcount.
		total := 0
		for lo := 0; lo < n; lo += 64 {
			hi := lo + 64
			if hi > n {
				hi = n
			}
			total += a.CountRange(lo, hi)
		}
		if total != a.Count() {
			t.Errorf("n=%d tiled CountRange = %d, want %d", n, total, a.Count())
		}
	}
}

func TestBitmapAndInto(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	scratch := NewBitmap(0)
	for _, n := range []int{0, 64, 130, 500} {
		a := randomBitmap(r, n, 0.4)
		b := randomBitmap(r, n, 0.4)
		aw, bw := a.Count(), b.Count()
		want := a.Clone().And(b)
		got := scratch.AndInto(a, b)
		if got != scratch {
			t.Fatal("AndInto must return its receiver")
		}
		if got.Len() != want.Len() || got.Count() != want.Count() {
			t.Fatalf("n=%d AndInto count = %d, want %d", n, got.Count(), want.Count())
		}
		for i := 0; i < n; i++ {
			if got.Has(i) != want.Has(i) {
				t.Fatalf("n=%d AndInto bit %d = %v, want %v", n, i, got.Has(i), want.Has(i))
			}
		}
		if a.Count() != aw || b.Count() != bw {
			t.Fatal("AndInto mutated an operand")
		}
	}
	// A wide result after a narrow one must not keep stale high words.
	wide := NewBitmap(256)
	wide.Set(200)
	scratch.AndInto(wide, wide)
	scratch.AndInto(NewBitmap(64), NewBitmap(64))
	if scratch.Count() != 0 || scratch.Len() != 64 {
		t.Errorf("scratch reuse leaked: count=%d len=%d", scratch.Count(), scratch.Len())
	}
}
