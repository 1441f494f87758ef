package plan

import (
	"context"
	"fmt"

	"mddm/internal/dimension"
	"mddm/internal/query"
	"mddm/internal/storage"
)

// compileWhere lowers the WHERE tree to a selection bitmap over dense
// fact indices: value predicates become the engine's memoized closure
// bitmaps (f ⤳ e is a bitmap probe, not a per-fact model walk), numeric
// comparisons scan the memoized measure column, and the boolean
// connectives are word-parallel bitmap algebra. Name-resolution error
// texts replicate the algebra compiler (query.compilePred) exactly, so a
// bad WHERE reads identically on either path. Dimensions and the context
// for their lookups are the engine's (Engine.Dimension, Engine.Context):
// on a context view, the sliced dimension the algebra would compile against.
func compileWhere(cctx context.Context, n query.PredNode, eng *storage.Engine) (*storage.Bitmap, error) {
	switch x := n.(type) {
	case query.AndNode:
		out := storage.NewBitmap(eng.NumFacts()).Fill()
		for _, k := range x.Kids {
			kb, err := compileWhere(cctx, k, eng)
			if err != nil {
				return nil, err
			}
			out.And(kb)
		}
		return out, nil
	case query.OrNode:
		out := storage.NewBitmap(eng.NumFacts())
		for _, k := range x.Kids {
			kb, err := compileWhere(cctx, k, eng)
			if err != nil {
				return nil, err
			}
			out.Or(kb)
		}
		return out, nil
	case query.NotNode:
		kb, err := compileWhere(cctx, x.Kid, eng)
		if err != nil {
			return nil, err
		}
		return storage.NewBitmap(eng.NumFacts()).Fill().AndNot(kb), nil
	case query.CondNode:
		return compileCondBitmap(cctx, x, eng)
	case query.InNode:
		d := eng.Dimension(x.Dim)
		if d == nil {
			return nil, fmt.Errorf("query: unknown dimension %q", x.Dim)
		}
		out := storage.NewBitmap(eng.NumFacts())
		for _, v := range x.Vals {
			ab, err := resolveValueBitmap(cctx, query.CondNode{Dim: x.Dim, Qualifier: x.Qualifier, Op: "=", StrVal: v}, d, eng)
			if err != nil {
				return nil, err
			}
			out.Or(ab)
		}
		if x.Negated {
			out = storage.NewBitmap(eng.NumFacts()).Fill().AndNot(out)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("query: unknown predicate node %T", n)
	}
}

func compileCondBitmap(cctx context.Context, c query.CondNode, eng *storage.Engine) (*storage.Bitmap, error) {
	d := eng.Dimension(c.Dim)
	if d == nil {
		return nil, fmt.Errorf("query: unknown dimension %q", c.Dim)
	}
	if c.IsNum {
		op, err := query.CmpOp(c.Op)
		if err != nil {
			return nil, err
		}
		// Same semantics as algebra.NumericCmp: a fact matches when any of
		// its admitted numeric values in the dimension satisfies the
		// comparison. The memoized measure column holds exactly those
		// values per dense index.
		av := eng.ArgValues(c.Dim)
		out := storage.NewBitmap(len(av))
		for i, vals := range av {
			for _, v := range vals {
				if op.Holds(v, c.NumVal) {
					out.Set(i)
					break
				}
			}
		}
		return out, nil
	}
	base, err := resolveValueBitmap(cctx, c, d, eng)
	if err != nil {
		return nil, err
	}
	if c.Op == "<>" || c.Op == "!=" {
		return storage.NewBitmap(eng.NumFacts()).Fill().AndNot(base), nil
	}
	return base, nil
}

// resolveValueBitmap resolves a string literal to a closure bitmap: a
// qualifier names a representation; an unqualified literal resolves first
// as a value id, then through every representation of the dimension —
// the same resolution order as query.resolveValuePred.
func resolveValueBitmap(cctx context.Context, c query.CondNode, d *dimension.Dimension, eng *storage.Engine) (*storage.Bitmap, error) {
	ectx := eng.Context()
	if c.Qualifier != "" {
		rep := d.Representation(c.Qualifier)
		if rep == nil {
			return nil, fmt.Errorf("query: dimension %q has no representation %q (has %v)", c.Dim, c.Qualifier, d.Representations())
		}
		id, ok := rep.IDOf(c.StrVal, ectx)
		if !ok {
			return storage.NewBitmap(eng.NumFacts()), nil
		}
		return characterizing(cctx, eng, c.Dim, id)
	}
	if d.Has(c.StrVal) {
		return characterizing(cctx, eng, c.Dim, c.StrVal)
	}
	// Fall back to any representation that knows the literal.
	out := storage.NewBitmap(eng.NumFacts())
	for _, r := range d.Representations() {
		rep := d.Representation(r)
		id, ok := rep.IDOf(c.StrVal, ectx)
		if !ok {
			continue
		}
		rb, err := characterizing(cctx, eng, c.Dim, id)
		if err != nil {
			return nil, err
		}
		out.Or(rb)
	}
	return out, nil
}

func characterizing(cctx context.Context, eng *storage.Engine, dim, value string) (*storage.Bitmap, error) {
	bm, err := eng.CharacterizingContext(cctx, dim, value)
	if err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	return bm, nil
}
