package query

import (
	"strconv"
	"strings"

	"mddm/internal/temporal"
)

// This file renders a parsed query back to one canonical SQL text — the
// result cache's key material (see internal/cache). Two query strings
// that parse to the same semantics (differing in whitespace, keyword
// case, redundant parentheses, quoted vs bare identifiers, number
// spellings, `!=` vs `<>`, or an explicit alias that matches the
// default) render identically; queries with distinct parameters render
// distinctly because every field of the Query struct is emitted in a
// fixed order with unambiguous quoting. The rendering is itself valid
// query syntax, which gives the canonicalizer a machine-checkable
// correctness property, enforced by FuzzCacheKey: Parse(q.Canonical())
// succeeds and reaches the same fixpoint
// (Parse(q.Canonical()).Canonical() == q.Canonical()).
//
// Deliberately NOT part of the canonical form: tracing, explain and every
// other context-carried execution knob — none of them changes a result.
// Catalog state
// (e.g. a GROUP BY with the category elided resolving to the bottom
// category) is also not folded in: such pairs simply occupy two cache
// slots, which costs duplicate work, never staleness.

// Canonical renders the query in canonical form. The text is stable
// across process runs (no map iteration is involved) and injective on
// the normalized Query value.
func (q *Query) Canonical() string {
	var b strings.Builder
	if q.Describe != "" {
		b.WriteString("DESCRIBE ")
		writeName(&b, q.Describe)
		if q.DescribeDim != "" {
			b.WriteByte(' ')
			writeName(&b, q.DescribeDim)
		}
		return b.String()
	}
	b.WriteString("SELECT ")
	if q.FactsOnly {
		b.WriteString("FACTS")
	} else {
		writeName(&b, q.Agg)
		if q.AggArg == "*" {
			b.WriteString("(*)")
		} else {
			b.WriteByte('(')
			writeName(&b, q.AggArg)
			b.WriteByte(')')
		}
		// The alias defaults to the function name (see RunContext), so an
		// explicit `AS SETCOUNT` on a SETCOUNT query is the same query;
		// rendering the resolved alias makes the two collide.
		alias := q.Alias
		if alias == "" {
			alias = q.Agg
		}
		b.WriteString(" AS ")
		writeName(&b, alias)
	}
	b.WriteString(" FROM ")
	writeName(&b, q.From)
	if q.Where != nil {
		b.WriteString(" WHERE ")
		writePred(&b, q.Where)
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range q.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			writeName(&b, g.Dim)
			if g.Cat != "" {
				b.WriteByte('.')
				writeName(&b, g.Cat)
			}
		}
	}
	if q.Having {
		b.WriteString(" HAVING ")
		b.WriteString(canonOp(q.HavingOp))
		b.WriteByte(' ')
		b.WriteString(formatNum(q.HavingVal))
	}
	// The parser keeps only the last ASOF of each kind, so a fixed
	// VALID-then-TRANS order loses nothing (the timeslices commute in
	// RunContext: VALID is always applied first regardless of source
	// order).
	if q.AsofValid != nil {
		b.WriteString(" ASOF VALID ")
		writeChronon(&b, *q.AsofValid)
	}
	if q.AsofTrans != nil {
		b.WriteString(" ASOF TRANS ")
		writeChronon(&b, *q.AsofTrans)
	}
	// PROB >= 0 admits everything, exactly like no PROB clause (the
	// executor always installs MinProb, zero or not), so 0 renders as
	// absent and the two spellings collide.
	if q.MinProb > 0 {
		b.WriteString(" WITH PROB >= ")
		b.WriteString(formatNum(q.MinProb))
	}
	if q.OrderBy != "" {
		b.WriteString(" ORDER BY ")
		writeName(&b, q.OrderBy)
		if q.OrderDesc {
			b.WriteString(" DESC")
		}
	}
	// LIMIT 0 is "no limit" in orderAndLimit, identical to omitting the
	// clause; both render as absent.
	if q.Limit > 0 {
		b.WriteString(" LIMIT ")
		b.WriteString(strconv.Itoa(q.Limit))
	}
	return b.String()
}

// writePred renders a predicate tree. AND/OR nodes carry their own
// parentheses so precedence survives re-parsing; NOT binds tighter and
// needs none of its own.
func writePred(b *strings.Builder, n PredNode) {
	switch x := n.(type) {
	case AndNode:
		b.WriteByte('(')
		for i, k := range x.Kids {
			if i > 0 {
				b.WriteString(" AND ")
			}
			writePred(b, k)
		}
		b.WriteByte(')')
	case OrNode:
		b.WriteByte('(')
		for i, k := range x.Kids {
			if i > 0 {
				b.WriteString(" OR ")
			}
			writePred(b, k)
		}
		b.WriteByte(')')
	case NotNode:
		b.WriteString("NOT ")
		writePred(b, x.Kid)
	case InNode:
		writeName(b, x.Dim)
		if x.Qualifier != "" {
			b.WriteByte('.')
			writeName(b, x.Qualifier)
		}
		if x.Negated {
			b.WriteString(" NOT")
		}
		b.WriteString(" IN (")
		for i, v := range x.Vals {
			if i > 0 {
				b.WriteString(", ")
			}
			writeString(b, v)
		}
		b.WriteByte(')')
	case CondNode:
		writeName(b, x.Dim)
		if x.Qualifier != "" {
			b.WriteByte('.')
			writeName(b, x.Qualifier)
		}
		b.WriteByte(' ')
		b.WriteString(canonOp(x.Op))
		b.WriteByte(' ')
		if x.IsNum {
			b.WriteString(formatNum(x.NumVal))
		} else {
			writeString(b, x.StrVal)
		}
	}
}

// writeName renders an identifier double-quoted (the lexer's tokQIdent
// form), doubling embedded quotes, so any name — keyword-shaped, spaced,
// or empty — re-parses to the identical string.
func writeName(b *strings.Builder, s string) {
	b.WriteByte('"')
	b.WriteString(strings.ReplaceAll(s, `"`, `""`))
	b.WriteByte('"')
}

// writeString renders a string literal single-quoted with doubled-quote
// escaping, mirroring the lexer.
func writeString(b *strings.Builder, s string) {
	b.WriteByte('\'')
	b.WriteString(strings.ReplaceAll(s, `'`, `''`))
	b.WriteByte('\'')
}

// writeChronon renders an ASOF instant in the dd/mm/yyyy form ParseDate
// accepts (NOW/BEGINNING/FOREVER render symbolically).
func writeChronon(b *strings.Builder, c temporal.Chronon) {
	writeString(b, c.String())
}

// canonOp folds the two spellings of "not equal" into one.
func canonOp(op string) string {
	if op == "!=" {
		return "<>"
	}
	return op
}

// formatNum renders a number in plain decimal — 'f' rather than 'g',
// because the lexer accepts only digits and dots (no exponents, no
// signs) and every literal it can produce is finite and non-negative.
// Precision -1 picks the shortest digits that round-trip through
// ParseFloat, so re-parsing recovers the identical float64.
func formatNum(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}
