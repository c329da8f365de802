package query_test

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/integrate"
	"repro/internal/oracle"
	"repro/internal/pxml"
	"repro/internal/pxmltest"
	"repro/internal/query"
	"repro/internal/queryindex"
)

// propertyQueries is the query pool the property tests sweep; it covers
// child and descendant axes, predicates, wildcards, text() and absent
// tags over both the movie-catalog and the random-tree tag vocabulary.
var propertyQueries = []string{
	`//movie/title`,
	`//movie[year="1975"]/title`,
	`//movie[.//genre="Horror"]/title`,
	`//movie/director`,
	`/catalog/movie/title`,
	`//title/text()`,
	`//*[title]/year`,
	`//nosuchtag/title`,
	`//a/b`,
	`//a[b="x"]/c`,
	`//movie[title="Jaws"]/year`,
}

// propertyTrees builds the document corpus: integrated datagen catalogs
// (genuinely uncertain movie documents) plus random probabilistic trees.
func propertyTrees(t testing.TB) []*pxml.Tree {
	t.Helper()
	var trees []*pxml.Tree
	for seed := int64(1); seed <= 3; seed++ {
		pair := datagen.Typical(3, 5, 2, seed)
		res, _, err := integrate.Integrate(pair.A.Tree, pair.B.Tree, integrate.Config{
			Oracle: oracle.MovieOracle(oracle.SetTitle),
			Schema: datagen.MovieDTD(),
		})
		if err != nil {
			t.Fatalf("integrate seed %d: %v", seed, err)
		}
		trees = append(trees, res)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 6; i++ {
		trees = append(trees, pxmltest.RandomTree(rng, pxmltest.DefaultGenConfig()))
	}
	return trees
}

// TestPropertyEvaluatorsAgree asserts, over the whole corpus, that exact
// and enumerate produce the same distribution, that sampling converges to
// it within Monte-Carlo tolerance, and that the planner's auto choice is
// the method the result reports.
func TestPropertyEvaluatorsAgree(t *testing.T) {
	const samples = 4000
	// 4 sigma on p(1-p)/n at p=0.5: comfortably above noise, far below
	// any genuine disagreement.
	const sampleTol = 0.04
	for ti, tree := range propertyTrees(t) {
		idx := queryindex.Build(tree)
		for _, src := range propertyQueries {
			q := query.MustCompile(src)

			enum, enumErr := query.EvalEnumerate(tree, q, 200000)
			if enumErr != nil {
				t.Fatalf("tree %d %s: enumerate: %v", ti, src, enumErr)
			}

			exact, exactErr := query.EvalExact(tree, q, 0)
			if exactErr == nil {
				assertAnswersWithin(t, ti, src, "exact-vs-enumerate", exact, enum, 1e-9)
			} else if !errors.Is(exactErr, query.ErrNotExact) {
				t.Fatalf("tree %d %s: exact: %v", ti, src, exactErr)
			}

			sampled := query.EvalSample(tree, q, samples, 7)
			assertAnswersWithin(t, ti, src, "sample-vs-enumerate", sampled, enum, sampleTol)

			auto, err := query.EvalIndexed(tree, q, query.Options{Samples: samples, Seed: query.SeedPtr(7)}, idx)
			if err != nil {
				t.Fatalf("tree %d %s: auto: %v", ti, src, err)
			}
			if auto.Plan == nil {
				t.Fatalf("tree %d %s: auto result has no plan", ti, src)
			}
			if auto.Plan.Method != auto.Method {
				t.Fatalf("tree %d %s: plan method %q != result method %q",
					ti, src, auto.Plan.Method, auto.Method)
			}
			assertAnswersWithin(t, ti, src, "auto-vs-enumerate", auto.Answers, enum, sampleTol)
		}
	}
}

// TestPropertyAutoBitIdentical asserts the engine's determinism criterion:
// MethodAuto returns bit-identical answers to explicitly requesting the
// method it selected, over the full corpus and query pool, at the default
// limits and at a local limit small enough to force sampling. Without an
// index it plans and answers exactly as with one, and it never enumerates.
func TestPropertyAutoBitIdentical(t *testing.T) {
	sampled := 0
	for ti, tree := range propertyTrees(t) {
		idx := queryindex.Build(tree)
		for _, src := range propertyQueries {
			q := query.MustCompile(src)
			for _, local := range []int{0, 2} {
				opts := query.Options{Samples: 500, Seed: query.SeedPtr(11), LocalWorldLimit: local}
				auto, err := query.EvalIndexed(tree, q, opts, idx)
				if err != nil {
					t.Fatalf("tree %d %s limit %d: auto: %v", ti, src, local, err)
				}
				if auto.Method == query.MethodEnumerate {
					t.Fatalf("tree %d %s limit %d: auto enumerated", ti, src, local)
				}
				if auto.Method == query.MethodSample {
					sampled++
				}
				expOpts := opts
				expOpts.Method = auto.Method
				explicit, err := query.EvalIndexed(tree, q, expOpts, idx)
				if err != nil {
					t.Fatalf("tree %d %s limit %d: explicit %q: %v", ti, src, local, auto.Method, err)
				}
				if !reflect.DeepEqual(auto.Answers, explicit.Answers) {
					t.Fatalf("tree %d %s limit %d: auto (%q) not bit-identical to explicit run:\nauto:     %v\nexplicit: %v",
						ti, src, local, auto.Method, auto.Answers, explicit.Answers)
				}
				if auto.SampledWorlds != explicit.SampledWorlds {
					t.Fatalf("tree %d %s limit %d: sampled-world counts differ: %d vs %d",
						ti, src, local, auto.SampledWorlds, explicit.SampledWorlds)
				}
				noIdx, err := query.EvalIndexed(tree, q, opts, nil)
				if err != nil {
					t.Fatalf("tree %d %s limit %d: unindexed auto: %v", ti, src, local, err)
				}
				if noIdx.Method != auto.Method || !reflect.DeepEqual(noIdx.Answers, auto.Answers) || !reflect.DeepEqual(noIdx.Plan, auto.Plan) {
					t.Fatalf("tree %d %s limit %d: unindexed auto ran %q with plan %+v, indexed %q with %+v",
						ti, src, local, noIdx.Method, noIdx.Plan, auto.Method, auto.Plan)
				}
			}
		}
	}
	if sampled == 0 {
		t.Fatal("no auto evaluation sampled: the limit-2 sweep proves nothing")
	}
}

// assertAnswersWithin compares two answer sets as value->probability maps.
func assertAnswersWithin(t *testing.T, tree int, src, what string, got, want []query.Answer, tol float64) {
	t.Helper()
	gm := answersMap(got)
	wm := answersMap(want)
	for v, p := range wm {
		if d := gm[v] - p; d > tol || d < -tol {
			t.Fatalf("tree %d %s [%s]: value %q: got %g want %g (tol %g)", tree, src, what, v, gm[v], p, tol)
		}
	}
	for v, p := range gm {
		if _, ok := wm[v]; !ok && p > tol {
			t.Fatalf("tree %d %s [%s]: spurious value %q p=%g", tree, src, what, v, p)
		}
	}
}

func answersMap(answers []query.Answer) map[string]float64 {
	m := make(map[string]float64, len(answers))
	for _, a := range answers {
		m[a.Value] = a.P
	}
	return m
}
