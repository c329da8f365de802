package query_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/query"
)

func TestCompileValidQueries(t *testing.T) {
	valid := []string{
		`/addressbook/person/nm`,
		`//movie/title`,
		`//movie[.//genre="Horror"]/title`,
		`//movie[some $d in .//director satisfies contains($d,"John")]/title`,
		`//movie[year="1995" and .//genre]/title`,
		`//movie[title="Jaws" or title="Jaws 2"]/title`,
		`//movie[not(.//genre="Horror")]/title`,
		`//person/*`,
		`//person/nm/text()`,
		`/catalog//movie[contains(title, "Mission")]/year`,
		`//movie[genre]/title`,
		`//movie[./year = "1995"]/title`,
		`//movie[(genre="A" or genre="B") and year="1"]/title`,
		`//a[some $v in b satisfies $v = "x"]`,
		`//movie[contains(., "Jaws")]`,
		`//movie[contains(./title, 'Jaws')]/title`,
		`//movie[year=1995]/title`,
	}
	for _, src := range valid {
		if _, err := query.Compile(src); err != nil {
			t.Errorf("Compile(%q): %v", src, err)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{``, "must start with"},
		{`movie/title`, "must start with"},
		{`//`, "expected step name"},
		{`//movie/`, "expected step name"},
		{`//movie[`, "expected path"},
		{`//movie[]`, "expected path"},
		{`//movie[title=]`, "expected literal"},
		{`//movie[title="unterminated]`, "unterminated string"},
		{`//movie]`, "unexpected"},
		{`//movie[contains(title)]`, "expected ,"},
		{`//movie[contains(title, "x"]`, "expected )"},
		{`//movie[some $d in satisfies contains($d,"x")]`, "expected 'satisfies'"},
		{`//movie[some $d title satisfies contains($d,"x")]`, "expected 'in'"},
		{`//movie[some $d in .//d contains($d,"x")]`, "expected 'satisfies'"},
		{`//movie[some $d in .//d satisfies contains($e,"x")]`, "unknown variable"},
		{`//movie[some $d in .//d satisfies $e = "x"]`, "unknown variable"},
		{`//movie[some $d in .//d satisfies nope]`, "expected contains"},
		{`//movie[not title]`, "expected ("},
		{`//movie[not(title]`, "expected )"},
		{`//text()/a`, "text() cannot be the first step"},
		{`//a/text()/b`, "text() must be the last step"},
		{`/text()`, "text() cannot be the first step"},
		{`//movie[$x = "1"]`, "expected path"},
		{`//movie[#]`, "unexpected character"},
		{`//movie[some $ in x satisfies $x="1"]`, "empty variable"},
	}
	for _, tc := range cases {
		_, err := query.Compile(tc.src)
		if err == nil {
			t.Errorf("Compile(%q): expected error containing %q", tc.src, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Compile(%q) error %q, want substring %q", tc.src, err.Error(), tc.want)
		}
	}
}

// TestParseNestingLimit: predicates, parentheses and not(…) nest up to
// MaxNesting levels; one more is a *ParseError, and so is a query nested
// millions of levels deep, which used to overflow the parser's stack.
func TestParseNestingLimit(t *testing.T) {
	parens := func(levels int) string {
		return `//a[` + strings.Repeat("(", levels-1) + "b" + strings.Repeat(")", levels-1) + "]"
	}
	preds := func(levels int) string {
		return `//a` + strings.Repeat("[b", levels) + strings.Repeat("]", levels)
	}
	nots := func(levels int) string {
		return `//a[` + strings.Repeat("not(", levels-1) + "b" + strings.Repeat(")", levels-1) + "]"
	}
	for _, build := range []func(int) string{parens, preds, nots} {
		if _, err := query.Compile(build(query.MaxNesting)); err != nil {
			t.Fatalf("%d levels: %v", query.MaxNesting, err)
		}
		_, err := query.Compile(build(query.MaxNesting + 1))
		var pe *query.ParseError
		if !errors.As(err, &pe) || !strings.Contains(pe.Msg, "nests deeper than 256 levels") {
			t.Fatalf("%d levels: error %v, want the nesting limit", query.MaxNesting+1, err)
		}
	}
	// The 6 MB body of the server's TestFeedbackDeepQuery.
	if _, err := query.Compile(parens(3_000_001)); err == nil {
		t.Fatal("a query nested 3 000 001 levels deep compiled")
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	query.MustCompile(`not a query`)
}

func TestQueryStringRoundTrip(t *testing.T) {
	src := `//movie[.//genre="Horror"]/title`
	q := query.MustCompile(src)
	if q.String() != src {
		t.Fatalf("String() = %q", q.String())
	}
}

func TestPredStringForms(t *testing.T) {
	q := query.MustCompile(`//m[a="1" and (contains(b,"2") or not(c))]/t`)
	s := q.Steps[0].Preds[0].String()
	for _, want := range []string{"a", "contains", "not", "and", "or"} {
		if !strings.Contains(s, want) {
			t.Fatalf("pred string %q missing %q", s, want)
		}
	}
}
