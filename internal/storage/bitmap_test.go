package storage

import (
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
			for i := 0; i < n; i++ {
				if i < lo || i >= hi || !a.Has(i) {
					continue
				}
				wantCount++
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
