package query_test

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/integrate"
	"repro/internal/oracle"
	"repro/internal/pxml"
	"repro/internal/pxmltest"
	"repro/internal/query"
)

// exactGoldenFile holds one line per (document, query, method) case of
// exactGoldenLines, recorded from the exact executor as it stood before its
// one-pass rewrite. Only the skipped-anchor counts were recorded again, when
// the text fingerprint grew from 64 to 256 bits and let fewer anchors
// through to the exact check.
const exactGoldenFile = "testdata/exact_golden.txt"

// exactGoldenQueries are the property queries plus required literals on
// leaf tags, the shapes the executor's fingerprint gate decides.
var exactGoldenQueries = append(append([]string(nil), propertyQueries...),
	`//movie[title="Jaws 2"]/year`,
	`//movie[director="Ridley Scott"]/title`,
	`//movie[title="Heat" and year="1995"]/director`,
	`//movie[not(title="Alien")]/year`,
	`//catalog[.//title="Alien 3"]//year`,
)

// exactGoldenTrees is the property corpus plus folds of random catalogs,
// whose near-duplicate records the integrator puts under choice points.
func exactGoldenTrees(t *testing.T) []*pxml.Tree {
	trees := propertyTrees(t)
	cfg := integrate.Config{Oracle: oracle.MovieOracle(oracle.SetTitle), Schema: datagen.MovieDTD()}
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 6; i++ {
		doc := pxmltest.RandomCatalog(rng, 2+rng.Intn(5))
		for step := 0; step < 2; step++ {
			if next, _, err := integrate.Integrate(doc, pxmltest.RandomCatalog(rng, 2+rng.Intn(5)), cfg); err == nil {
				doc = next
			}
		}
		trees = append(trees, doc)
	}
	return trees
}

// exactGoldenLines evaluates every case and renders it as one tab-separated
// line: document, query, requested method, then the method run with the
// anchors it enumerated and skipped, then each answer's value and float64
// bits in rank order (or the error).
func exactGoldenLines(t *testing.T) []string {
	var lines []string
	for ti, tree := range exactGoldenTrees(t) {
		for _, src := range exactGoldenQueries {
			q := query.MustCompile(src)
			for _, m := range []query.Method{query.MethodExact, query.MethodAuto} {
				fields := []string{fmt.Sprint(ti), src, string(m)}
				res, err := query.Eval(tree, q, query.Options{Method: m, Seed: query.SeedPtr(7)})
				if err != nil {
					fields = append(fields, "error: "+err.Error())
				} else {
					fields = append(fields, fmt.Sprintf("%s %d %d", res.Method, res.Exec.AnchorsEnumerated, res.Exec.AnchorsSkipped))
					for _, a := range res.Answers {
						fields = append(fields, fmt.Sprintf("%s %#x", a.Value, math.Float64bits(a.P)))
					}
				}
				lines = append(lines, strings.Join(fields, "\t"))
			}
		}
	}
	return lines
}

// TestExactAnswersMatchGolden pins the exact executor bit for bit: over
// the corpus, EvalIndexed with method=exact and auto returns the recorded
// answers, float64 bits included, by the recorded method, with the
// recorded anchor counts. A change to the order in which the executor adds
// or multiplies failure probabilities shows here first.
func TestExactAnswersMatchGolden(t *testing.T) {
	data, err := os.ReadFile(exactGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	got := exactGoldenLines(t)
	if len(got) != len(want) {
		t.Fatalf("%d cases, %d recorded", len(got), len(want))
	}
	answered := 0
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("case %d:\n got  %q\n want %q", i, got[i], want[i])
		}
		if strings.Count(got[i], "\t") > 3 {
			answered++
		}
	}
	if answered < len(got)/3 {
		t.Fatalf("corpus too thin: %d of %d cases have answers", answered, len(got))
	}
}
