package query_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/pxml"
	"repro/internal/query"
	"repro/internal/queryindex"
)

// TestBloomPruningSoundness drives the text-fingerprint pruning through
// the shapes where a naive implementation would wrongly prune: literals
// with spaces (which can match across concatenated leaves), values
// produced by nested elements under the predicate path's tag, negated
// predicates, and contains() conditions. In every case the planned
// engine must agree with exhaustive enumeration.
func TestBloomPruningSoundness(t *testing.T) {
	doc := `
	<catalog>
	  <movie><title>Die Hard</title><year>1988</year></movie>
	  <movie><title><part>Die</part><part>Hard</part></title><year>1900</year></movie>
	  <movie><title><b>Jaws</b></title><year>1975</year></movie>
	  <movie><title>Alien</title><year>1979</year></movie>
	</catalog>`
	tr := mustTreeFromXML(t, doc)
	idx := queryindex.Build(tr)
	for _, src := range []string{
		`//movie[title="Die Hard"]/year`, // space literal: no pruning allowed
		`//movie[title="Jaws"]/year`,     // value from nested <b>, not <title> text
		`//movie[not(title="Alien")]/year`,
		`//movie[contains(title, "lie")]/year`,
		`//movie[title="Nowhere"]/year`, // genuinely absent: prune to empty
	} {
		q := query.MustCompile(src)
		planned, err := query.EvalIndexed(tr, q, query.Options{Method: query.MethodExact}, idx)
		if err != nil {
			t.Fatalf("%s: planned exact: %v", src, err)
		}
		enum, err := query.EvalEnumerate(tr, q, 0)
		if err != nil {
			t.Fatalf("%s: enumerate: %v", src, err)
		}
		assertAnswersWithin(t, 0, src, "planned-vs-enumerate", planned.Answers, enum, 1e-9)
	}

	// The concatenated "Die Hard" title must actually be found (two part
	// leaves joined with a space), or the test above proves nothing.
	q := query.MustCompile(`//movie[title="Die Hard"]/year`)
	res, err := query.EvalIndexed(tr, q, query.Options{}, idx)
	if err != nil {
		t.Fatal(err)
	}
	years := map[string]bool{}
	for _, a := range res.Answers {
		years[a.Value] = true
	}
	if !reflect.DeepEqual(years, map[string]bool{"1988": true, "1900": true}) {
		t.Fatalf("Die Hard years = %v, want both the plain and the concatenated title", years)
	}
}

// limitFixture holds one certain record and one whose five independent
// year choices span 32 local worlds. The second carries the first's title
// as its director, so its text fingerprint has the title and only the exact
// check tells them apart.
func limitFixture() *pxml.Tree {
	wide := []*pxml.Node{pxml.Certain(pxml.NewLeaf("title", "Wide Film")), pxml.Certain(pxml.NewLeaf("director", "Die Hard"))}
	for i := 0; i < 5; i++ {
		wide = append(wide, pxml.NewProb(
			pxml.NewPoss(0.5, pxml.NewLeaf("year", fmt.Sprint(1990+i))),
			pxml.NewPoss(0.5, pxml.NewLeaf("year", fmt.Sprint(2000+i)))))
	}
	return pxml.CertainTree(pxml.NewElem("catalog", "",
		pxml.Certain(pxml.NewElem("movie", "", pxml.Certain(pxml.NewLeaf("title", "Die Hard")), pxml.Certain(pxml.NewLeaf("year", "1988")))),
		pxml.Certain(pxml.NewElem("movie", "", wide...))))
}

// TestLocalWorldLimitCountsMatchingAnchorsOnly: an anchor that cannot match
// is skipped before its worlds are counted against LocalWorldLimit, so an
// explicit exact evaluation answers where only such an anchor exceeds the
// limit, and so does EvalExact. An anchor that can match and exceeds it is
// ErrNotExact.
func TestLocalWorldLimitCountsMatchingAnchorsOnly(t *testing.T) {
	tr := limitFixture()
	idx := queryindex.Build(tr)
	narrow := query.MustCompile(`//movie[title="Die Hard"]/year`)
	wide := query.MustCompile(`//movie[title="Wide Film"]/year`)
	opts := query.Options{Method: query.MethodExact, LocalWorldLimit: 8}
	res, err := query.EvalIndexed(tr, narrow, opts, idx)
	if err != nil {
		t.Fatalf("the only anchor over the limit cannot match, want an answer, got %v", err)
	}
	if want := []query.Answer{{Value: "1988", P: 1}}; !reflect.DeepEqual(res.Answers, want) {
		t.Fatalf("answers %v, want %v", res.Answers, want)
	}
	if res.Exec.AnchorsEnumerated != 1 || res.Exec.AnchorsSkipped != 1 {
		t.Fatalf("%+v, want 1 anchor enumerated and 1 skipped", res.Exec)
	}
	if _, err := query.EvalIndexed(tr, wide, opts, idx); !errors.Is(err, query.ErrNotExact) {
		t.Fatalf("the matching anchor spans 32 worlds (limit 8): got %v, want ErrNotExact", err)
	}
	exact, err := query.EvalExact(tr, narrow, 8)
	if err != nil || !reflect.DeepEqual(exact, res.Answers) {
		t.Fatalf("EvalExact runs the same executor: got %v, %v, want %v", exact, err, res.Answers)
	}
}

// TestPlannerBoundStaysPerTagMaximum: the planner does not look at literals.
// Its anchor bound is the index's maximum over every <movie>, a true upper
// bound for whichever of them the gate lets through, so auto still avoids
// exact when any movie exceeds the limit — and samples, by the method it
// names.
func TestPlannerBoundStaysPerTagMaximum(t *testing.T) {
	tr := limitFixture()
	idx := queryindex.Build(tr)
	q := query.MustCompile(`//movie[title="Die Hard"]/year`)
	res, err := query.EvalIndexed(tr, q, query.Options{LocalWorldLimit: 8, Samples: 500}, idx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.AnchorWorldBound != "32" || res.Plan.Method != query.MethodSample || res.Method != query.MethodSample {
		t.Fatalf("plan %+v ran %s, want bound 32 and sampling", *res.Plan, res.Method)
	}
	if p := res.P("1988"); p < 1-1e-9 || p > 1+1e-9 || res.SampledWorlds != 500 {
		t.Fatalf("answers %v from %d samples", res.Answers, res.SampledWorlds)
	}
	res, err = query.EvalIndexed(tr, q, query.Options{LocalWorldLimit: 32}, idx)
	if err != nil || res.Plan.Method != query.MethodExact {
		t.Fatalf("limit 32: plan %+v, err %v, want exact", res.Plan, err)
	}
}

// workCatalog is the catalog of TestReadPathWorkCounts: records movies
// with distinct titles, a quarter of them under a choice point between two
// versions, one titled with " Redux" appended. It returns the tree and its
// top-level children.
func workCatalog(records int) (*pxml.Tree, []*pxml.Node) {
	movie := func(i int, title string) *pxml.Node {
		return pxml.NewElem("movie", "",
			pxml.Certain(pxml.NewLeaf("title", title)),
			pxml.Certain(pxml.NewLeaf("year", fmt.Sprint(1950+i%60))),
			pxml.Certain(pxml.NewLeaf("director", fmt.Sprintf("Director %02d", i%40))))
	}
	var top []*pxml.Node
	for i := 0; i < records; i++ {
		title := fmt.Sprintf("Film %03d", i)
		if i%4 == 0 {
			top = append(top, pxml.NewProb(pxml.NewPoss(0.6, movie(i, title)), pxml.NewPoss(0.4, movie(i+1, title+" Redux"))))
		} else {
			top = append(top, pxml.Certain(movie(i, title)))
		}
	}
	return pxml.CertainTree(pxml.NewElem("catalog", "", top...)), top
}

// TestReadPathWorkCounts is the regression test of the read path's gain
// that needs no clock: a look-up by a value with a space in it enumerates
// the records that can carry the value and visits little more than one
// node per top-level child of a 200-record catalog, a quarter of whose
// records are uncertain. On a 2 000-record catalog the text fingerprints
// let through, on average over title look-ups, at most one anchor per
// hundred top-level children that the exact check then has to skip.
func TestReadPathWorkCounts(t *testing.T) {
	tr, top := workCatalog(200)
	idx := queryindex.Build(tr)
	for _, c := range []struct{ tag, lit, result string }{
		{"title", "Film 017", "year"},
		{"title", "Film 016", "year"},       // under a choice point
		{"title", "Film 016 Redux", "year"}, // its other alternative
		{"director", "Director 07", "title"},
		{"title", "Film 999", "year"}, // absent
	} {
		canCarry := int64(0)
		pxml.Walk(tr.Root(), func(n *pxml.Node) bool {
			if n.Kind() == pxml.KindElem && n.Tag() == c.tag && (!n.IsLeaf() || n.Text() == c.lit) {
				canCarry++
			}
			return true
		})
		src := fmt.Sprintf(`//movie[%s=%q]/%s`, c.tag, c.lit, c.result)
		res, err := query.EvalIndexed(tr, query.MustCompile(src), query.Options{}, idx)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if res.Method != query.MethodExact || (len(res.Answers) == 0) != (canCarry == 0) {
			t.Fatalf("%s: method %s, answers %v, %d records can carry the value", src, res.Method, res.Answers, canCarry)
		}
		if got := res.Exec.AnchorsEnumerated; got < canCarry || got > canCarry+2 || (canCarry == 0 && got != 0) {
			t.Errorf("%s: %d anchors enumerated, %d records can carry the value", src, got, canCarry)
		}
		if got, limit := res.Exec.NodeVisits, int64(2*len(top)+50); got > limit {
			t.Errorf("%s: %d node visits, want at most %d for %d top-level children", src, got, limit, len(top))
		}
	}

	tr, top = workCatalog(2000)
	idx = queryindex.Build(tr)
	skipped, lookups := int64(0), 0
	for i := 0; i < len(top); i += 37 {
		res, err := query.EvalIndexed(tr, query.MustCompile(fmt.Sprintf(`//movie[title="Film %03d"]/year`, i)), query.Options{}, idx)
		if err != nil {
			t.Fatal(err)
		}
		if res.Exec.AnchorsEnumerated != 1 {
			t.Errorf("Film %03d: %d anchors enumerated, want its own record", i, res.Exec.AnchorsEnumerated)
		}
		skipped += res.Exec.AnchorsSkipped
		lookups++
	}
	avg := float64(skipped) / float64(lookups)
	t.Logf("%.1f anchors skipped per title look-up over %d top-level children", avg, len(top))
	if avg > float64(len(top))/100 {
		t.Errorf("%.1f anchors skipped per title look-up on average over %d, want at most 1%% of the %d top-level children",
			avg, lookups, len(top))
	}
}
