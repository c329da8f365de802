package explain

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/integrate"
	"repro/internal/oracle"
	"repro/internal/pxml"
	"repro/internal/pxmltest"
	"repro/internal/query"
)

// fullScan is the report Answer would give with every genuine choice point
// of t as a candidate: each is forced one alternative at a time, in
// depth-first order.
func fullScan(t *pxml.Tree, q *query.Query, value string, baseline float64) []ChoiceInfluence {
	var out []ChoiceInfluence
	var path []*pxml.Node
	var rec func(n *pxml.Node)
	rec = func(n *pxml.Node) {
		path = append(path, n)
		if n.Kind() == pxml.KindProb && n.NumChildren() > 1 {
			if ci, ok := influence(t, q, value, baseline, path); ok && ci.Influence >= minInfluence {
				out = append(out, ci)
			}
		}
		for _, k := range n.Children() {
			rec(k)
		}
		path = path[:len(path)-1]
	}
	rec(t.Root())
	sort.SliceStable(out, func(i, j int) bool { return out[i].Influence > out[j].Influence })
	return out
}

// TestExplainSupportEqualsFullScan: on random documents, for every possible
// answer of the conditioner's queries, the report built on query.Support
// lists the choice points a scan of every genuine choice point lists, with
// the same influences.
func TestExplainSupportEqualsFullScan(t *testing.T) {
	queries := []string{
		`//a`,
		`//movie/title`,
		`//movie[title]/title`,
		`//a//b`,
		`//c[a="x"]/b`,
		`//movie[title="John"]/a`,
		`//movie/title/text()`,
		`//*/text()`,
	}
	rng := rand.New(rand.NewSource(41))
	cfg := pxmltest.DefaultGenConfig()
	var compared, influential int
	for i := 0; i < 300; i++ {
		tr := pxmltest.RandomTree(rng, cfg)
		if wc := tr.WorldCount(); !wc.IsInt64() || wc.Int64() > 500 {
			continue
		}
		for _, src := range queries {
			q := query.MustCompile(src)
			answers, err := query.EvalExact(tr, q, 0)
			if err != nil {
				t.Fatalf("doc %d %s: %v", i, src, err)
			}
			for _, a := range answers {
				r, err := Answer(tr, q, a.Value)
				if err != nil {
					t.Fatalf("doc %d %s = %q: %v", i, src, a.Value, err)
				}
				ref := fullScan(tr, q, a.Value, r.P)
				if len(r.Choices) != len(ref) {
					t.Fatalf("doc %d %s = %q: %d choice points reported, the full scan finds %d\n%s", i, src, a.Value, len(r.Choices), len(ref), tr)
				}
				for j, c := range r.Choices {
					if c.Path != ref[j].Path || math.Abs(c.Influence-ref[j].Influence) > 1e-12 {
						t.Fatalf("doc %d %s = %q: choice %d is %s (influence %v), the full scan's %s (%v)",
							i, src, a.Value, j, c.Path, c.Influence, ref[j].Path, ref[j].Influence)
					}
				}
				compared++
				influential += len(ref)
			}
		}
	}
	if compared < 500 || influential < 500 {
		t.Fatalf("corpus too thin: %d answers compared, %d influential choice points", compared, influential)
	}
	t.Logf("%d answers compared, %d influential choice points", compared, influential)
}

// TestExplainFindsChoicePointsFarFromTheRoot: on a movie integration with 90
// genuine choice points, two of the choice points an uncertain title hinges
// on lie beyond the 64 nearest the root, and the report lists both.
func TestExplainFindsChoicePointsFarFromTheRoot(t *testing.T) {
	pair := datagen.Confusing(24, 1)
	tree, _, err := integrate.Integrate(pair.A.Tree, pair.B.Tree, integrate.Config{
		Oracle: oracle.MovieOracle(oracle.SetGenreTitle),
		Schema: datagen.MovieDTD(),
	})
	if err != nil {
		t.Fatalf("integrate: %v", err)
	}
	if n := tree.ChoicePoints(); n != 90 {
		t.Fatalf("%d genuine choice points, want 90", n)
	}
	r, err := Answer(tree, query.MustCompile(`//movie/title`), "Mission: Impossible V: The Series")
	if err != nil {
		t.Fatalf("Answer: %v", err)
	}
	if math.Abs(r.P-0.969) > 0.001 {
		t.Fatalf("P = %v, want ≈ 0.969", r.P)
	}
	// A choice point of the catalog's, near the root, has influence 0.5;
	// the two title choices inside its alternatives lie deeper.
	for _, want := range []float64{0.037, 0.026} {
		found := false
		for _, c := range r.Choices {
			found = found || math.Abs(c.Influence-want) < 0.001
		}
		if !found {
			t.Fatalf("no choice point of influence ≈ %v in the report:\n%s", want, r.Format())
		}
	}
}

// TestSupportPathsAreDistinct: on a movie integration, the 30 choice
// points query.Support reports for any title have 30 paths, although some
// lie in movies that share an alternative: each element on a path carries
// its index among its same-tag siblings.
func TestSupportPathsAreDistinct(t *testing.T) {
	pair := datagen.Confusing(24, 1)
	tree, _, err := integrate.Integrate(pair.A.Tree, pair.B.Tree, integrate.Config{
		Oracle: oracle.MovieOracle(oracle.SetGenreTitle),
		Schema: datagen.MovieDTD(),
	})
	if err != nil {
		t.Fatalf("integrate: %v", err)
	}
	paths := map[string]bool{}
	n := 0
	if err := query.Support(tree, query.MustCompile(`//movie/title`), "", func(path []*pxml.Node) {
		n++
		paths[pathString(path)] = true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 30 || len(paths) != n {
		t.Fatalf("%d choice points, %d distinct paths, want 30 of each", n, len(paths))
	}
}
