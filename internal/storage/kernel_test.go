package storage

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"mddm/internal/agg"
	"mddm/internal/casestudy"
	"mddm/internal/qos"
)

// legRef is the model-layer reference of one leg under one selection: per
// category value, in CategoryAt order, the selected facts it characterizes
// (f ⤳ v tested through the MO, no index involved) and their argument
// values in ascending dense-index order.
type legRef struct {
	values []string
	counts []int64
	args   [][]float64
}

func referenceLeg(e *Engine, dim, cat, argDim string, sel *Bitmap, lo, hi int) legRef {
	vals := topValues // ⊤: one value, characterizing every fact
	if dim != "" {
		vals = e.mo.Dimension(dim).CategoryAt(cat, e.ctx)
	}
	ref := legRef{values: vals, counts: make([]int64, len(vals)), args: make([][]float64, len(vals))}
	av := e.ArgValues(argDim)
	for j, v := range vals {
		for i := lo; i < hi; i++ {
			if sel != nil && !sel.Has(i) {
				continue
			}
			in := dim == ""
			if !in {
				in, _ = e.mo.CharacterizedBy(dim, e.facts[i], v, e.ctx)
			}
			if in {
				ref.counts[j]++
				ref.args[j] = append(ref.args[j], av[i]...)
			}
		}
	}
	return ref
}

// compact drops the reference's zero-count values — the AggregateBy view.
func (r legRef) compact() (values []string, counts []int, args [][]float64) {
	for j, v := range r.values {
		if r.counts[j] > 0 {
			values = append(values, v)
			counts = append(counts, int(r.counts[j]))
			args = append(args, r.args[j])
		}
	}
	return values, counts, args
}

// kernelLegs is the kernel tests' leg corpus: the column corpus plus ⊤, the
// empty leg of the ungrouped aggregate.
var kernelLegs = append(append([][2]string{}, columnDims...), [2]string{"", ""})

// legStrategy is the strategy a scan of the leg runs on an engine prepared
// for strategy: ⊤ has no column, its one closure is always a bitmap.
func legStrategy(strategy, dim string) string {
	if dim == "" {
		return KernelBitmap
	}
	return strategy
}

func sameLists(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if len(a[j]) != len(b[j]) {
			return false
		}
		for k := range a[j] {
			if math.Float64bits(a[j][k]) != math.Float64bits(b[j][k]) {
				return false
			}
		}
	}
	return true
}

// TestKernelAdapterEquivalence drives every exported one-leg entry point —
// all adapters over scanLeg — on a generated MO with many-to-many and
// mixed-granularity facts, for both strategies and with and without a
// selection, against the model-layer reference. It also pins that the fact
// budget an entry point charges is the same on either strategy.
func TestKernelAdapterEquivalence(t *testing.T) {
	cfg := casestudy.DefaultGen()
	cfg.Patients = 300
	m := casestudy.MustGenerate(cfg)
	arg := casestudy.DimAge
	spent := map[string]int64{} // entry/leg/selection → facts charged
	for _, strategy := range []string{KernelColumn, KernelBitmap} {
		e := NewEngine(m, ctx())
		if strategy == KernelColumn {
			if err := e.WarmColumns(context.Background(), 1); err != nil {
				t.Fatal(err)
			}
		} else {
			e.SetColumnMinValues(1 << 20) // CountByColumn builds columns; keep them unselected
		}
		n := e.NumFacts()
		third := NewBitmap(n)
		for i := 0; i < n; i += 3 {
			third.Set(i)
		}
		for _, dc := range kernelLegs {
			dim, cat := dc[0], dc[1]
			for _, sel := range []*Bitmap{nil, third} {
				ref := referenceLeg(e, dim, cat, arg, sel, 0, n)
				refV, refC, refA := ref.compact()
				tag := fmt.Sprintf("%s %s/%s sel=%v", strategy, dim, cat, sel != nil)
				charged := func(entry string, run func(ctx context.Context)) {
					t.Helper()
					bctx := qos.WithFactBudget(context.Background(), 1<<40)
					run(bctx)
					key := fmt.Sprintf("%s %s/%s sel=%v", entry, dim, cat, sel != nil)
					got := qos.BudgetFrom(bctx).Spent()
					if want, seen := spent[key]; seen && got != want {
						t.Fatalf("%s %s: charged %d facts, the other strategy charged %d", tag, entry, got, want)
					}
					spent[key] = got
				}

				scan, err := e.ScanLeg(context.Background(), dim, cat, []SharedScanMember{{Sel: sel, ArgDim: arg}})
				if err != nil {
					t.Fatal(err)
				}
				if scan.Kernel != legStrategy(strategy, dim) {
					t.Fatalf("%s: kernel ran %q", tag, scan.Kernel)
				}

				if sel == nil {
					wantCounts := map[string]int{}
					wantSums := map[string]float64{}
					for j, v := range refV {
						wantCounts[v] = refC[j]
						if len(refA[j]) > 0 {
							wantSums[v] = foldOf(refA[j]).Sum
						}
					}
					if dim != "" { // the index-free comparator walks a real dimension
						if scanned := e.CountDistinctScan(dim, cat); !reflect.DeepEqual(scanned, wantCounts) {
							t.Fatalf("%s: reference %v, CountDistinctScan %v", tag, wantCounts, scanned)
						}
					}
					counts := map[string]func(context.Context) (map[string]int, error){
						"CountDistinctByContext": func(c context.Context) (map[string]int, error) { return e.CountDistinctByContext(c, dim, cat) },
						"CountByColumn":          func(c context.Context) (map[string]int, error) { return e.CountByColumn(c, dim, cat) },
					}
					for entry, fn := range counts {
						charged(entry, func(c context.Context) {
							got, err := fn(c)
							if err != nil || !reflect.DeepEqual(got, wantCounts) {
								t.Fatalf("%s %s: %v %v, want %v", tag, entry, got, err, wantCounts)
							}
						})
					}
					sums := map[string]func(context.Context) (map[string]float64, error){
						"SumByContext": func(c context.Context) (map[string]float64, error) { return e.SumByContext(c, dim, cat, arg) },
						"SumByColumn":  func(c context.Context) (map[string]float64, error) { return e.SumByColumn(c, dim, cat, arg) },
					}
					for entry, fn := range sums {
						charged(entry, func(c context.Context) {
							got, err := fn(c)
							if err != nil || !reflect.DeepEqual(got, wantSums) {
								t.Fatalf("%s %s: %v %v, want %v", tag, entry, got, err, wantSums)
							}
						})
					}
				}

				charged("AggregateBy", func(c context.Context) {
					v, cs, as, err := e.AggregateBy(c, dim, cat, arg, sel)
					if err != nil || !reflect.DeepEqual(v, refV) || !reflect.DeepEqual(cs, refC) || !sameLists(as, refA) {
						t.Fatalf("%s AggregateBy: %v %v %v %v, want %v %v %v", tag, v, cs, as, err, refV, refC, refA)
					}
				})
				v, cs, as, err := e.AggregateByRange(context.Background(), dim, cat, arg, sel, 0, n)
				if err != nil || !reflect.DeepEqual(v, refV) || !reflect.DeepEqual(cs, refC) || !sameLists(as, refA) {
					t.Fatalf("%s AggregateByRange: %v %v %v %v, want %v %v %v", tag, v, cs, as, err, refV, refC, refA)
				}

				members := []SharedScanMember{{Sel: sel}, {Sel: sel, ArgDim: arg}, {Sel: sel, ArgDim: arg, ListArgs: true}}
				values, counts, args, folds, err := e.SharedAggregateBy(context.Background(), dim, cat, members, 1)
				if err != nil || !reflect.DeepEqual(values, ref.values) {
					t.Fatalf("%s SharedAggregateBy: values %v %v, want %v", tag, values, err, ref.values)
				}
				for mi := range members {
					if !reflect.DeepEqual(counts[mi], ref.counts) {
						t.Fatalf("%s SharedAggregateBy member %d: counts %v, want %v", tag, mi, counts[mi], ref.counts)
					}
				}
				if !sameLists(args[2], ref.args) {
					t.Fatalf("%s SharedAggregateBy: lists %v, want %v", tag, args[2], ref.args)
				}
				for j := range ref.values {
					if want := foldOf(ref.args[j]); !foldEqual(folds[1][j], want) {
						t.Fatalf("%s SharedAggregateBy: fold of %s %+v, want %+v", tag, ref.values[j], folds[1][j], want)
					}
				}
			}
		}
	}
}

// TestKernelRangeComposition pins the decomposition delta maintenance
// stands on, at the kernel itself: scan[0,lo) followed by scan[lo,hi) is
// scan[0,hi) — counts add, lists concatenate element for element, Accs
// continue bitwise — on both strategies, with and without a selection, and
// wherever the range is cut. On a measure that is not integer-valued it
// also pins the float-order contract: a full scan's Acc is the left fold
// over the value's facts in ascending order, bit for bit, whichever
// strategy ran, so AVG and SUM answers cannot vary with it.
func TestKernelRangeComposition(t *testing.T) {
	cfg := casestudy.DefaultGen()
	cfg.Patients = 300
	m := casestudy.MustGenerate(cfg)
	first := map[string]LegScan{} // per leg: the column strategy's full scan
	reassoc := 0                  // folds a two-way split of the list would change
	for _, strategy := range []string{KernelColumn, KernelBitmap} {
		e := NewEngine(m, ctx())
		if strategy == KernelColumn {
			if err := e.WarmColumns(context.Background(), 1); err != nil {
				t.Fatal(err)
			}
		}
		fractionalAges(e)
		n := e.NumFacts()
		members := sharedMembers(e)
		for _, dc := range kernelLegs {
			dim, cat := dc[0], dc[1]
			scan := func(lo, hi int) LegScan {
				s, err := e.scanLeg(context.Background(), dim, cat, lo, hi, members)
				if err != nil {
					t.Fatal(err)
				}
				if s.Kernel != legStrategy(strategy, dim) {
					t.Fatalf("%s/%s: kernel ran %q, want %q", dim, cat, s.Kernel, strategy)
				}
				return s
			}
			full := scan(0, n)
			want, ok := first[dim+"/"+cat]
			if !ok {
				want, first[dim+"/"+cat] = full, full
			}
			for mi, f := range full.Members {
				for j := range full.Values {
					tag := fmt.Sprintf("%s %s/%s member %d %s", strategy, dim, cat, mi, full.Values[j])
					if f.Counts[j] != want.Members[mi].Counts[j] {
						t.Fatalf("%s: count %d, column strategy %d", tag, f.Counts[j], want.Members[mi].Counts[j])
					}
					if f.Folds == nil {
						continue
					}
					var left, lo, hi agg.Acc // the left fold over the list twin's values
					list := full.Members[mi+1].Args[j]
					for k, x := range list {
						left.Add(x)
						if k < len(list)/2 {
							lo.Add(x)
						} else {
							hi.Add(x)
						}
					}
					if lo.Sum+hi.Sum != left.Sum {
						reassoc++
					}
					if !foldEqual(f.Folds[j], left) || !foldEqual(f.Folds[j], want.Members[mi].Folds[j]) {
						t.Fatalf("%s: fold %+v, left fold %+v, column strategy fold %+v", tag, f.Folds[j], left, want.Members[mi].Folds[j])
					}
				}
			}
			for _, cut := range []int{0, 1, 63, 64, 65, n / 2, n - 1, n} {
				tag := fmt.Sprintf("%s %s/%s cut=%d", strategy, dim, cat, cut)
				pre, post := scan(0, cut), scan(cut, n)
				for mi := range members {
					f, a, b := full.Members[mi], pre.Members[mi], post.Members[mi]
					for j := range full.Values {
						if a.Counts[j]+b.Counts[j] != f.Counts[j] {
							t.Fatalf("%s member %d %s: counts %d+%d != %d", tag, mi, full.Values[j], a.Counts[j], b.Counts[j], f.Counts[j])
						}
						if f.Args != nil {
							stitched := append(append([]float64{}, a.Args[j]...), b.Args[j]...)
							if !sameLists([][]float64{stitched}, [][]float64{f.Args[j]}) {
								t.Fatalf("%s member %d %s: lists %v ++ %v != %v", tag, mi, full.Values[j], a.Args[j], b.Args[j], f.Args[j])
							}
						}
						if f.Folds != nil {
							// Continue the prefix's fold with the suffix's
							// values: the next member is this one's list twin.
							cont := a.Folds[j]
							for _, x := range post.Members[mi+1].Args[j] {
								cont.Add(x)
							}
							if !foldEqual(cont, f.Folds[j]) {
								t.Fatalf("%s member %d %s: fold %+v continued over %v = %+v, want %+v", tag, mi, full.Values[j], a.Folds[j], post.Members[mi+1].Args[j], cont, f.Folds[j])
							}
						}
					}
				}
			}
		}
	}
	if reassoc == 0 {
		t.Fatal("the measure sums exactly under re-association: the test cannot see a reordered fold")
	}
}

// fractionalAges overwrites the engine's memoized Age measure column with
// values whose sums round — 1/3, 1/7 and 1e-9-scale fractions over
// magnitudes from 1 to 1e9 — so any re-association of a float fold shows
// in its last bits. The case study's own ages are integers, which every
// association sums exactly.
func fractionalAges(e *Engine) {
	e.ensureArgValues(casestudy.DimAge)
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, xs := range e.argCols[casestudy.DimAge] {
		for k := range xs {
			xs[k] = xs[k]/3 + float64(i)/7 + 1e-9*float64(i*i) + float64(i%5)*1e9
		}
	}
}

// TestScanOfOneAllocations is the batch-of-one cost guard: a one-member
// count-only scan of a built high-cardinality column allocates a small
// constant number of objects — the output slots — and in particular
// nothing per dictionary value (a per-scan clone of every closure bitmap
// is what once made a batch of one ten times a solo kernel).
func TestScanOfOneAllocations(t *testing.T) {
	cfg := casestudy.DefaultGen()
	cfg.Patients = 2000
	cfg.LowLevel = 140
	e := NewEngine(casestudy.MustGenerate(cfg), ctx())
	dim, cat := casestudy.DimDiagnosis, casestudy.CatLowLevel
	if err := e.BuildColumn(context.Background(), dim, cat); err != nil {
		t.Fatal(err)
	}
	one := []SharedScanMember{{}}
	allocs := testing.AllocsPerRun(50, func() {
		s, err := e.ScanLeg(context.Background(), dim, cat, one)
		if err != nil || s.Kernel != KernelColumn || len(s.Values) != 140 {
			t.Fatalf("scan of one: %d values by %q, %v", len(s.Values), s.Kernel, err)
		}
	})
	if allocs > 16 {
		t.Fatalf("a count-only scan of one allocates %.0f objects, want <= 16", allocs)
	}
}
