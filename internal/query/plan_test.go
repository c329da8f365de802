package query_test

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/pxml"
	"repro/internal/pxmltest"
	"repro/internal/query"
	"repro/internal/xmlcodec"
)

func mustTreeFromXML(t *testing.T, src string) *pxml.Tree {
	t.Helper()
	tr, err := xmlcodec.DecodeString(src)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestEvalIndexedAutoChoosesExactOnFig2(t *testing.T) {
	tr := pxmltest.Fig2Tree()
	q := query.MustCompile(`//person[nm="John"]/tel`)

	res, err := query.Eval(tr, q, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil {
		t.Fatal("planned result carries no plan")
	}
	if res.Plan.Method != res.Method {
		t.Fatalf("plan method %q != result method %q", res.Plan.Method, res.Method)
	}
	if res.Method != query.MethodExact {
		t.Fatalf("auto chose %q on a 3-world document, want exact", res.Method)
	}
	// Answers match possible-world enumeration.
	ref, err := query.EvalEnumerate(tr, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertAnswersClose(t, res.Answers, ref, 1e-9)
}

func TestEvalIndexedAutoBitIdenticalToExplicit(t *testing.T) {
	tr := pxmltest.Fig2Tree()
	for _, src := range []string{
		`//person[nm="John"]/tel`,
		`//person/nm`,
		`//tel`,
		`/addressbook/person[tel="1111"]/nm`,
	} {
		q := query.MustCompile(src)
		auto, err := query.Eval(tr, q, query.Options{})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		explicit, err := query.Eval(tr, q, query.Options{Method: auto.Method})
		if err != nil {
			t.Fatalf("%s: explicit %q: %v", src, auto.Method, err)
		}
		if !reflect.DeepEqual(auto.Answers, explicit.Answers) {
			t.Fatalf("%s: auto (%q) answers differ from explicit run:\n%v\n%v",
				src, auto.Method, auto.Answers, explicit.Answers)
		}
	}
}

func TestEvalIndexedEmptyByIndex(t *testing.T) {
	tr := pxmltest.Fig2Tree()
	q := query.MustCompile(`//movie/title`)
	res, err := query.Eval(tr, q, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 0 || res.Answers == nil {
		t.Fatalf("want empty non-nil answers, got %#v", res.Answers)
	}
	if res.Plan == nil || !res.Plan.EmptyByIndex {
		t.Fatalf("plan = %+v, want EmptyByIndex", res.Plan)
	}
	if res.Plan.PrunedFraction != 1 {
		t.Fatalf("pruned fraction = %g, want 1", res.Plan.PrunedFraction)
	}
	// The shortcut result equals actually running the chosen method.
	explicit, err := query.Eval(tr, q, query.Options{Method: res.Method})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Answers, explicit.Answers) {
		t.Fatalf("shortcut empty %#v != explicit %#v", res.Answers, explicit.Answers)
	}
}

// TestEvalIndexedStaleIndexIgnored: the EvalIndexed shim ignores its
// summary argument, so a summary of another document cannot leak into the
// plan — it is the one Eval makes from the tree's own summary.
func TestEvalIndexedStaleIndexIgnored(t *testing.T) {
	q := query.MustCompile(`//book/isbn`)
	stale := pxmltest.Fig2Tree().Summary()
	small := mustTreeFromXML(t, `<library><book><isbn>1</isbn></book></library>`)
	got, err := query.EvalIndexed(small, q, query.Options{}, stale)
	if err != nil {
		t.Fatal(err)
	}
	want, err := query.Eval(small, q, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Plan, want.Plan) || !reflect.DeepEqual(got.Answers, want.Answers) {
		t.Fatalf("with a stale summary: planned %+v, answered %v; Eval %+v, %v", got.Plan, got.Answers, want.Plan, want.Answers)
	}
	if got.Plan.EmptyByIndex || got.P("1") != 1 {
		t.Fatalf("the stale summary's tags leaked into the plan: %+v, answers %v", got.Plan, got.Answers)
	}
}

func TestEvalIndexedExplicitMethodErrors(t *testing.T) {
	tr := pxmltest.Fig2Tree()
	// text() as first step is not exactly evaluable (Compile rejects it, so
	// the query is built by hand); an explicit exact request must surface
	// the error rather than silently falling back.
	textFirst := &query.Query{Steps: []query.Step{{IsText: true, Name: "text()"}}}
	if _, err := query.Eval(tr, textFirst, query.Options{Method: query.MethodExact}); !errors.Is(err, query.ErrNotExact) {
		t.Fatalf("text()-first exact error = %v, want ErrNotExact", err)
	}
	q := query.MustCompile(`//person/tel`)
	_, err := query.Eval(tr, q, query.Options{Method: "bogus"})
	if !errors.Is(err, query.ErrBadOptions) {
		t.Fatalf("bogus method error = %v, want ErrBadOptions", err)
	}
	_, err = query.Eval(tr, q, query.Options{Samples: -1})
	if !errors.Is(err, query.ErrBadOptions) {
		t.Fatalf("negative samples error = %v, want ErrBadOptions", err)
	}
}

func assertAnswersClose(t *testing.T, got, want []query.Answer, tol float64) {
	t.Helper()
	gm := map[string]float64{}
	for _, a := range got {
		gm[a.Value] = a.P
	}
	wm := map[string]float64{}
	for _, a := range want {
		wm[a.Value] = a.P
	}
	if len(gm) != len(wm) {
		t.Fatalf("answer sets differ: %v vs %v", got, want)
	}
	for v, p := range wm {
		if d := gm[v] - p; d > tol || d < -tol {
			t.Fatalf("answer %q: %g vs %g", v, gm[v], p)
		}
	}
}
