package query_test

import (
	"math"
	"testing"

	"repro/internal/query"
)

// A richer catalog exercising nesting, attributes (shredded to @-tags),
// repeated tags and mixed depths.
const conformanceDoc = `
<library city="Enschede">
	<shelf id="s1">
		<book lang="en">
			<title>Probabilistic Databases</title>
			<author><nm>Suciu</nm></author>
			<author><nm>Koch</nm></author>
			<tag>databases</tag>
			<tag>uncertainty</tag>
		</book>
		<book lang="nl">
			<title>Goed Genoeg</title>
			<author><nm>de Keijzer</nm></author>
			<tag>integration</tag>
		</book>
	</shelf>
	<shelf id="s2">
		<book lang="en">
			<title>XML Foundations</title>
			<author><nm>Suciu</nm></author>
			<tag>databases</tag>
			<box><book lang="fr"><title>Nested</title><author><nm>Inner</nm></author></book></box>
		</book>
	</shelf>
</library>`

// conformanceCases are queries over conformanceDoc with the values each
// selects; FuzzParseQuery seeds its corpus from them as well.
var conformanceCases = []struct {
	q    string
	want []string
}{
	// Axis combinations.
	{`/library/shelf/book/title`, []string{"Probabilistic Databases", "Goed Genoeg", "XML Foundations"}},
	{`//book/title`, []string{"Probabilistic Databases", "Goed Genoeg", "XML Foundations", "Nested"}},
	{`//box//title`, []string{"Nested"}},
	{`/library//title`, []string{"Probabilistic Databases", "Goed Genoeg", "XML Foundations", "Nested"}},
	{`//shelf/book/box/book/title`, []string{"Nested"}},
	{`/shelf/book/title`, nil}, // shelf is not the document element
	// Wildcards.
	{`//author/*`, []string{"Suciu", "Koch", "de Keijzer", "Inner"}},
	{`/library/*/book/title`, []string{"Probabilistic Databases", "Goed Genoeg", "XML Foundations"}},
	// Attributes as @-tags.
	{`//book/@lang`, []string{"en", "nl", "fr"}},
	{`//shelf/@id`, []string{"s1", "s2"}},
	{`/library/@city`, []string{"Enschede"}},
	{`//book[@lang="nl"]/title`, []string{"Goed Genoeg"}},
	// Predicates: existence, equality, contains.
	{`//book[tag]/title`, []string{"Probabilistic Databases", "Goed Genoeg", "XML Foundations"}},
	{`//book[tag="uncertainty"]/title`, []string{"Probabilistic Databases"}},
	{`//book[contains(title,"XML")]/title`, []string{"XML Foundations"}},
	{`//book[author/nm="Suciu"]/title`, []string{"Probabilistic Databases", "XML Foundations"}},
	// Both the outer book (via its box) and the nested book itself
	// have a descendant nm="Inner".
	{`//book[.//nm="Inner"]/title`, []string{"XML Foundations", "Nested"}},
	{`//shelf[book/tag="integration"]/@id`, []string{"s1"}},
	// Boolean connectives and not().
	{`//book[tag="databases" and @lang="en"]/title`, []string{"Probabilistic Databases", "XML Foundations"}},
	{`//book[tag="integration" or tag="uncertainty"]/title`, []string{"Probabilistic Databases", "Goed Genoeg"}},
	{`//book[not(tag)]/title`, []string{"Nested"}},
	{`//book[not(author/nm="Suciu")]/title`, []string{"Goed Genoeg", "Nested"}},
	{`//book[(tag="databases" or tag="integration") and not(@lang="nl")]/title`,
		[]string{"Probabilistic Databases", "XML Foundations"}},
	// some … satisfies.
	{`//book[some $a in author/nm satisfies contains($a, "Keijzer")]/title`, []string{"Goed Genoeg"}},
	{`//book[some $a in .//nm satisfies $a = "Koch"]/title`, []string{"Probabilistic Databases"}},
	// text() steps.
	{`//book/title/text()`, []string{"Probabilistic Databases", "Goed Genoeg", "XML Foundations", "Nested"}},
	{`//author/nm/text()`, []string{"Suciu", "Koch", "de Keijzer", "Inner"}},
	// Self path and string values.
	{`//book[contains(., "Suciu")]/@lang`, []string{"en"}},
	{`//nm[.="Koch"]`, []string{"Koch"}},
	// Predicates on intermediate steps.
	{`//shelf[@id="s2"]/book/title`, []string{"XML Foundations"}},
	{`//shelf[@id="s2"]//title`, []string{"XML Foundations", "Nested"}},
}

func TestXPathConformanceCertain(t *testing.T) {
	tr := decode(t, conformanceDoc)
	for _, tc := range conformanceCases {
		t.Run(tc.q, func(t *testing.T) {
			q, err := query.Compile(tc.q)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			// Certain world evaluation.
			got := query.EvalWorld(q, tr.RootElements())
			if len(got) != len(tc.want) {
				t.Fatalf("EvalWorld = %v, want %v", keys(got), tc.want)
			}
			for _, w := range tc.want {
				if !got[w] {
					t.Fatalf("EvalWorld missing %q: %v", w, keys(got))
				}
			}
			// Exact evaluation must agree (probability 1 each).
			exact, err := query.EvalExact(tr, q, 0)
			if err != nil {
				t.Fatalf("EvalExact: %v", err)
			}
			if len(exact) != len(tc.want) {
				t.Fatalf("EvalExact = %v, want %v", exact, tc.want)
			}
			for _, a := range exact {
				if math.Abs(a.P-1) > 1e-9 {
					t.Fatalf("P(%q) = %v on certain doc", a.Value, a.P)
				}
			}
			// Enumeration agrees trivially (1 world) — and guards against
			// divergence between the evaluation paths.
			enum, err := query.EvalEnumerate(tr, q, 10)
			if err != nil {
				t.Fatalf("EvalEnumerate: %v", err)
			}
			compareAnswers(t, tc.q, exact, enum, 1e-9)
			// So does the planned executor, whose literal gate stands in
			// front of every subtree and anchor.
			planned, err := query.EvalIndexed(tr, q, query.Options{Method: query.MethodExact}, nil)
			if err != nil {
				t.Fatalf("EvalIndexed: %v", err)
			}
			compareAnswers(t, tc.q, planned.Answers, enum, 1e-9)
		})
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// A probabilistic fixture with hand-computed marginals: an uncertain book
// (70% present), an uncertain tag value, and a certain book.
const conformanceProbDoc = `
<library>
	<shelf>
		<_prob>
			<_poss p="0.7">
				<book>
					<title>Maybe</title>
					<_prob>
						<_poss p="0.4"><tag>databases</tag></_poss>
						<_poss p="0.6"><tag>ai</tag></_poss>
					</_prob>
				</book>
			</_poss>
			<_poss p="0.3"/>
		</_prob>
		<book><title>Always</title><tag>databases</tag></book>
	</shelf>
</library>`

func TestXPathConformanceProbabilistic(t *testing.T) {
	cases := []struct {
		q    string
		want map[string]float64
	}{
		{`//book/title`, map[string]float64{"Maybe": 0.7, "Always": 1}},
		{`//book[tag="databases"]/title`, map[string]float64{"Maybe": 0.7 * 0.4, "Always": 1}},
		{`//book[tag="ai"]/title`, map[string]float64{"Maybe": 0.7 * 0.6}},
		{`//tag`, map[string]float64{"databases": 1, "ai": 0.42}},
		{`//book[not(tag="ai")]/title`, map[string]float64{"Maybe": 0.28, "Always": 1}},
		{`//shelf[book/title="Maybe"]/book/title`, map[string]float64{"Maybe": 0.7, "Always": 0.7}},
	}
	tr := decode(t, conformanceProbDoc)
	for _, tc := range cases {
		t.Run(tc.q, func(t *testing.T) {
			q := query.MustCompile(tc.q)
			exact, err := query.EvalExact(tr, q, 0)
			if err != nil {
				t.Fatalf("EvalExact: %v", err)
			}
			gm := map[string]float64{}
			for _, a := range exact {
				gm[a.Value] = a.P
			}
			if len(gm) != len(tc.want) {
				t.Fatalf("answers = %v, want %v", exact, tc.want)
			}
			for v, p := range tc.want {
				if math.Abs(gm[v]-p) > 1e-9 {
					t.Fatalf("P(%q) = %v, want %v", v, gm[v], p)
				}
			}
			enum, err := query.EvalEnumerate(tr, q, 100)
			if err != nil {
				t.Fatalf("EvalEnumerate: %v", err)
			}
			compareAnswers(t, tc.q, exact, enum, 1e-9)
		})
	}
}

func TestExpectedCountConformance(t *testing.T) {
	tr := decode(t, conformanceProbDoc)
	cases := []struct {
		q    string
		want float64
	}{
		{`//book`, 1.7},
		{`//tag`, 1.7},
		{`//book[tag="databases"]`, 1 + 0.28},
		{`//title`, 1.7},
	}
	for _, tc := range cases {
		got, err := query.ExpectedCount(tr, query.MustCompile(tc.q), 0)
		if err != nil {
			t.Fatalf("ExpectedCount(%s): %v", tc.q, err)
		}
		if math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("ExpectedCount(%s) = %v, want %v", tc.q, got, tc.want)
		}
	}
}
