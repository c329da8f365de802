package query_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/query"
)

// FuzzParseQuery: the XPath parser reads text that arrives over HTTP. Any
// input either compiles or is refused with a *ParseError — it never panics
// — and what compiles keeps the limits the evaluators rely on (at most 62
// steps for the 64-bit state sets, text() only as a predicate-free last
// step after an element step) and compiles again, from its String(), to an
// equal query.
func FuzzParseQuery(f *testing.F) {
	for _, tc := range conformanceCases {
		f.Add(tc.q)
	}
	for _, src := range propertyQueries {
		f.Add(src)
	}
	for _, src := range []string{
		strings.Repeat("/a", 62), strings.Repeat("/a", 63), "/a" + strings.Repeat("//*", 80),
		`/text()`, `//a/text()/b`, `//a/text()[b]`, `//a[text()="x"]`, `//a[b/text()/c]`,
		`//a[some $v in b satisfies $v = 'x y']`, `//a[not((b or c) and contains(., "d"))]`,
		`//a[` + strings.Repeat("(", 255) + "b" + strings.Repeat(")", 255) + "]",
		`//a[` + strings.Repeat("not(", 256) + "b" + strings.Repeat(")", 256) + "]",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := query.Compile(src)
		if err != nil {
			var pe *query.ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("Compile(%q): error %v (%T) is not a *ParseError", src, err, err)
			}
			return
		}
		if n := len(q.Steps); n == 0 || n > 62 {
			t.Fatalf("Compile(%q): %d steps compiled", src, n)
		}
		for i, s := range q.Steps {
			if s.IsText && (i == 0 || i != len(q.Steps)-1 || len(s.Preds) > 0) {
				t.Fatalf("Compile(%q): text() compiled as step %d of %d with %d predicates", src, i, len(q.Steps), len(s.Preds))
			}
		}
		again, err := query.Compile(q.String())
		if err != nil || !reflect.DeepEqual(again.Steps, q.Steps) {
			t.Fatalf("Compile(%q).String() = %q compiles to %+v (%v), want %+v", src, q.String(), again, err, q.Steps)
		}
	})
}
