package query_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/pxml"
	"repro/internal/pxmltest"
	"repro/internal/query"
	"repro/internal/xmlcodec"
)

func decode(t *testing.T, src string) *pxml.Tree {
	t.Helper()
	tr, err := xmlcodec.DecodeString(src)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return tr
}

const catalog = `
<catalog>
	<movie><title>Jaws</title><year>1975</year><genre>Horror</genre><director>Steven Spielberg</director></movie>
	<movie><title>Jaws 2</title><year>1978</year><genre>Horror</genre><director>Jeannot Szwarc</director></movie>
	<movie><title>Die Hard: With a Vengeance</title><year>1995</year><genre>Action</genre><director>John McTiernan</director></movie>
	<movie><title>Mission: Impossible II</title><year>2000</year><genre>Action</genre><director>John Woo</director></movie>
</catalog>`

func evalCertainDoc(t *testing.T, doc, q string) map[string]float64 {
	t.Helper()
	tr := decode(t, doc)
	res, err := query.Eval(tr, query.MustCompile(q), query.Options{})
	if err != nil {
		t.Fatalf("Eval(%s): %v", q, err)
	}
	out := map[string]float64{}
	for _, a := range res.Answers {
		out[a.Value] = a.P
	}
	return out
}

func TestCertainDocumentQueries(t *testing.T) {
	cases := []struct {
		q    string
		want []string
	}{
		{`//movie/title`, []string{"Jaws", "Jaws 2", "Die Hard: With a Vengeance", "Mission: Impossible II"}},
		{`/catalog/movie/year`, []string{"1975", "1978", "1995", "2000"}},
		{`//movie[.//genre="Horror"]/title`, []string{"Jaws", "Jaws 2"}},
		{`//movie[some $d in .//director satisfies contains($d,"John")]/title`,
			[]string{"Die Hard: With a Vengeance", "Mission: Impossible II"}},
		{`//movie[year="1995"]/title`, []string{"Die Hard: With a Vengeance"}},
		{`//movie[contains(title,"Jaws")]/year`, []string{"1975", "1978"}},
		{`//movie[not(genre="Horror")]/title`, []string{"Die Hard: With a Vengeance", "Mission: Impossible II"}},
		{`//movie[genre="Horror" and year="1975"]/title`, []string{"Jaws"}},
		{`//movie[genre="Horror" or year="2000"]/title`, []string{"Jaws", "Jaws 2", "Mission: Impossible II"}},
		{`//movie[genre="Comedy"]/title`, nil},
		{`//movie/title/text()`, []string{"Jaws", "Jaws 2", "Die Hard: With a Vengeance", "Mission: Impossible II"}},
		{`//genre`, []string{"Horror", "Action"}},
		{`/catalog/*/director`, []string{"Steven Spielberg", "Jeannot Szwarc", "John McTiernan", "John Woo"}},
		{`//nothing`, nil},
		{`/movie/title`, nil}, // movie is not the document element
	}
	for _, tc := range cases {
		t.Run(tc.q, func(t *testing.T) {
			got := evalCertainDoc(t, catalog, tc.q)
			if len(got) != len(tc.want) {
				t.Fatalf("answers = %v, want %v", got, tc.want)
			}
			for _, w := range tc.want {
				if math.Abs(got[w]-1) > 1e-9 {
					t.Fatalf("P(%q) = %v, want 1 (certain doc); all: %v", w, got[w], got)
				}
			}
		})
	}
}

func TestFig2Queries(t *testing.T) {
	tr := pxmltest.Fig2Tree()
	// Phone numbers: 1111 exists in the merged world (0.6×0.5) and the
	// separate world (0.4) = 0.7; same for 2222.
	res, err := query.Eval(tr, query.MustCompile(`//person/tel`), query.Options{})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if res.Method != query.MethodExact {
		t.Fatalf("method = %v, want exact", res.Method)
	}
	if p := res.P("1111"); math.Abs(p-0.7) > 1e-9 {
		t.Fatalf("P(1111) = %v, want 0.7", p)
	}
	if p := res.P("2222"); math.Abs(p-0.7) > 1e-9 {
		t.Fatalf("P(2222) = %v, want 0.7", p)
	}
	// The person named John exists certainly.
	res, err = query.Eval(tr, query.MustCompile(`//person/nm`), query.Options{})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if p := res.P("John"); math.Abs(p-1) > 1e-9 {
		t.Fatalf("P(John) = %v, want 1", p)
	}
	// Predicate query: person with phone 1111.
	res, err = query.Eval(tr, query.MustCompile(`//person[tel="1111"]/nm`), query.Options{})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if p := res.P("John"); math.Abs(p-0.7) > 1e-9 {
		t.Fatalf("P(John | tel=1111) = %v, want 0.7", p)
	}
}

func TestExactMatchesEnumerationOnFixtures(t *testing.T) {
	queries := []string{
		`//person/tel`,
		`//person[tel="1111"]/nm`,
		`//person[tel]/tel`,
		`//addressbook/person/nm`,
		`//person[nm="John" and tel="2222"]/tel`,
		`//person[not(tel="1111")]/nm`,
		`//*`,
		`//person/nm/text()`,
	}
	tr := pxmltest.Fig2Tree()
	for _, qs := range queries {
		q := query.MustCompile(qs)
		exact, err := query.EvalExact(tr, q, 0)
		if err != nil {
			t.Fatalf("EvalExact(%s): %v", qs, err)
		}
		enum, err := query.EvalEnumerate(tr, q, 1000)
		if err != nil {
			t.Fatalf("EvalEnumerate(%s): %v", qs, err)
		}
		compareAnswers(t, qs, exact, enum, 1e-9)
	}
}

func compareAnswers(t *testing.T, label string, got, want []query.Answer, tol float64) {
	t.Helper()
	gm := map[string]float64{}
	for _, a := range got {
		gm[a.Value] = a.P
	}
	wm := map[string]float64{}
	for _, a := range want {
		wm[a.Value] = a.P
	}
	for v, p := range wm {
		if math.Abs(gm[v]-p) > tol {
			t.Fatalf("%s: P(%q) = %v, want %v\ngot %v\nwant %v", label, v, gm[v], p, got, want)
		}
	}
	for v := range gm {
		if _, ok := wm[v]; !ok && gm[v] > tol {
			t.Fatalf("%s: unexpected answer %q (P=%v)", label, v, gm[v])
		}
	}
}

// The central correctness property: on random documents and a catalog of
// query shapes, exact evaluation agrees with exhaustive enumeration.
func TestExactMatchesEnumerationOnRandomDocuments(t *testing.T) {
	queries := []*query.Query{
		query.MustCompile(`//a`),
		query.MustCompile(`//movie/title`),
		query.MustCompile(`//movie[title]/title`),
		query.MustCompile(`//movie[.//title="x"]/title`),
		query.MustCompile(`//a[b="x"]/c`),
		query.MustCompile(`//a//b`),
		query.MustCompile(`/movie//title`),
		query.MustCompile(`//b[not(.//c)]/a`),
		query.MustCompile(`//a[contains(., "x")]`),
		query.MustCompile(`//movie[some $t in .//title satisfies contains($t, "J")]/c`),
		query.MustCompile(`//*[a or b]/c/text()`),
	}
	rng := rand.New(rand.NewSource(77))
	cfg := pxmltest.DefaultGenConfig()
	cfg.MaxDepth = 4
	checked := 0
	for i := 0; i < 60; i++ {
		tr := pxmltest.RandomTree(rng, cfg)
		if wc := tr.WorldCount(); !wc.IsInt64() || wc.Int64() > 2000 {
			continue
		}
		for _, q := range queries {
			exact, err := query.EvalExact(tr, q, 100000)
			if err != nil {
				t.Fatalf("doc %d EvalExact(%s): %v\n%s", i, q, err, tr)
			}
			enum, err := query.EvalEnumerate(tr, q, 5000)
			if err != nil {
				t.Fatalf("doc %d EvalEnumerate(%s): %v", i, q, err)
			}
			compareAnswers(t, q.String(), exact, enum, 1e-9)
			checked++
		}
	}
	if checked < 100 {
		t.Fatalf("too few property checks ran: %d", checked)
	}
}

func TestSamplingConvergesToExact(t *testing.T) {
	tr := pxmltest.Fig2Tree()
	q := query.MustCompile(`//person/tel`)
	exact, err := query.EvalExact(tr, q, 0)
	if err != nil {
		t.Fatalf("EvalExact: %v", err)
	}
	sampled := query.EvalSample(tr, q, 30000, 42)
	compareAnswers(t, "sampling", sampled, exact, 0.02)
}

func TestEvalFallsBackToSampling(t *testing.T) {
	// Force sampling by setting tiny limits.
	tr := pxmltest.Fig2Tree()
	q := query.MustCompile(`//person/tel`)
	res, err := query.Eval(tr, q, query.Options{LocalWorldLimit: 1, EnumWorldLimit: 1, Samples: 5000, Seed: query.SeedPtr(3)})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	// LocalWorldLimit=1 rejects exact only if some anchor has >1 local
	// world; tel anchors are leaves (1 world), so exact still succeeds.
	if res.Method != query.MethodExact {
		t.Fatalf("method = %v", res.Method)
	}
	// A predicate on person anchors at the person subtree, which has 2
	// worlds > 1.
	q2 := query.MustCompile(`//person[tel]/nm`)
	res, err = query.Eval(tr, q2, query.Options{LocalWorldLimit: 1, EnumWorldLimit: 1, Samples: 5000, Seed: query.SeedPtr(3)})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if res.Method != query.MethodSample {
		t.Fatalf("method = %v, want sample", res.Method)
	}
	if res.SampledWorlds != 5000 {
		t.Fatalf("SampledWorlds = %d", res.SampledWorlds)
	}
}

// TestEvalEnumeratesOnlyOnRequest: auto picks exact or sample, never
// enumeration, however few worlds the document has; an explicit
// MethodEnumerate still enumerates.
func TestEvalEnumeratesOnlyOnRequest(t *testing.T) {
	tr := pxmltest.Fig2Tree()
	q := query.MustCompile(`//person[tel]/nm`)
	res, err := query.Eval(tr, q, query.Options{LocalWorldLimit: 1, EnumWorldLimit: 100})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if res.Method != query.MethodSample {
		t.Fatalf("auto method = %v, want sample", res.Method)
	}
	res, err = query.Eval(tr, q, query.Options{Method: query.MethodEnumerate, LocalWorldLimit: 1, EnumWorldLimit: 100})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if res.Method != query.MethodEnumerate {
		t.Fatalf("method = %v, want enumerate", res.Method)
	}
	if p := res.P("John"); math.Abs(p-1) > 1e-9 {
		t.Fatalf("P(John) = %v", p)
	}
}

func TestResultHelpers(t *testing.T) {
	r := query.Result{Answers: []query.Answer{{Value: "a", P: 0.9}, {Value: "b", P: 0.5}}}
	if len(r.Top(1)) != 1 || r.Top(1)[0].Value != "a" {
		t.Fatalf("Top(1) wrong")
	}
	if len(r.Top(5)) != 2 {
		t.Fatalf("Top beyond length should clamp")
	}
	if r.P("b") != 0.5 || r.P("zzz") != 0 {
		t.Fatalf("P lookup wrong")
	}
}

// TestResultTopClamps: Top clamps n to [0, len(Answers)], so a negative or
// oversized n answers none or all instead of panicking.
func TestResultTopClamps(t *testing.T) {
	r := query.Result{Answers: []query.Answer{{Value: "a", P: 0.9}, {Value: "b", P: 0.5}}}
	for n, want := range map[int]int{-5: 0, -1: 0, 0: 0, 1: 1, 2: 2, 3: 2} {
		if got := r.Top(n); len(got) != want {
			t.Errorf("Top(%d) = %v, want %d answers", n, got, want)
		}
	}
	if got := (query.Result{}).Top(-1); len(got) != 0 {
		t.Errorf("Top(-1) of no answers = %v", got)
	}
}

func TestAnswersRankedDescending(t *testing.T) {
	tr := pxmltest.Fig2Tree()
	res, err := query.Eval(tr, query.MustCompile(`//person/*`), query.Options{})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	for i := 1; i < len(res.Answers); i++ {
		if res.Answers[i].P > res.Answers[i-1].P+1e-12 {
			t.Fatalf("answers not ranked: %v", res.Answers)
		}
	}
}

func TestStringValueConcatenation(t *testing.T) {
	tr := decode(t, `<movie><title>Jaws</title><year>1975</year></movie>`)
	got := evalCertainDoc(t, `<r><movie><title>Jaws</title><year>1975</year></movie></r>`, `//movie[contains(., "Jaws")]/year`)
	if math.Abs(got["1975"]-1) > 1e-9 {
		t.Fatalf("string-value contains failed: %v", got)
	}
	_ = tr
	v := query.StringValue(decode(t, `<movie><title>Jaws</title><year>1975</year></movie>`).RootElements()[0])
	if v != "Jaws 1975" {
		t.Fatalf("StringValue = %q", v)
	}
}
