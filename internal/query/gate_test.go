package query

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/pxml"
	"repro/internal/pxmltest"
)

// gateQueries are the shapes the literal gate must get right: literals with
// and without spaces, on paths ending in a tag, *, . and text(), required,
// negated, alternative and empty, on one step and on two, under a wildcard
// anchor, an anchor that is the whole document and an anchor nested in an
// anchor.
var gateQueries = []string{
	`//movie[title="Jaws 2"]/year`,
	`//movie[title="Die Hard"]/year`,
	`//movie[title="The Thing"]/director`,
	`//movie[title="Nowhere Land"]/year`,
	`//movie[title="Alien"]/year`,
	`//movie[director="Ridley Scott"]/title`,
	`//movie[director="Jaws 2"]/title`,
	`//movie[title="Heat" and year="1995"]/director`,
	`//movie[title="Jaws 2"][director="Michael Mann"]/year`,
	`//movie[not(title="Jaws 2")]/year`,
	`//movie[title="Jaws 2" or title="Alien 3"]/year`,
	`//movie[title=""]/year`,
	`//movie[*="Jaws 2"]/year`,
	`//movie[*="Alien"]/year`,
	`//title[.="Die Hard"]/part`,
	`//title[.="Alien"]`,
	`//movie[title/text()="Jaws 2"]/year`,
	`//movie[title/text()="Jaws"]/year`,
	`//movie[.//part="Hard"]/year`,
	`//movie[some $t in title satisfies $t = "Jaws 2"]/year`,
	`//*[title="Jaws 2"]/year`,
	`/catalog/movie[title="Jaws 2"]/title/text()`,
	`//movie[title="Alien 3"]/year[.="1979"]`,
	`//catalog[.//title="Die Hard"]//year`,
	`//a[b="x y"]//a/c`,
	`//a[b="x y"]/c`,
}

// gateDocument extends a pxmltest.RandomCatalog with the records that tell a
// sound gate from a naive one, and puts some neighbours under a common
// choice point so that anchors are uncertain. World counts stay small enough
// to enumerate.
func gateDocument(rng *rand.Rand) *pxml.Tree {
	leaf := pxml.NewLeaf
	one := pxml.Certain
	movie := func(title *pxml.Node, rest ...*pxml.Node) *pxml.Node {
		return pxml.NewElem("movie", "", append([]*pxml.Node{one(title)}, rest...)...)
	}
	var records []*pxml.Node
	for _, wrapped := range pxmltest.RandomCatalog(rng, 2+rng.Intn(4)).RootElements()[0].Children() {
		records = append(records, wrapped.Child(0).Child(0))
	}
	extras := []*pxml.Node{
		// Parts that join to a literal with a space.
		movie(pxml.NewElem("title", "", one(leaf("part", "Die")), one(leaf("part", "Hard"))), one(leaf("year", "1900"))),
		movie(leaf("title", "Die Hard"), one(leaf("year", "1988"))),
		// The second part is uncertain.
		movie(pxml.NewElem("title", "", one(leaf("part", "Die")),
			pxml.NewProb(pxml.NewPoss(0.4, leaf("part", "Hard")), pxml.NewPoss(0.6, leaf("part", "Soft")))),
			one(leaf("year", "1901"))),
		// Own text and a child: the string value is "Jaws 2".
		movie(pxml.NewElem("title", "Jaws", one(leaf("sub", "2"))), one(leaf("year", "1902"))),
		// The literal under another tag: the fingerprint has it, no title does.
		movie(leaf("title", "Solaris"), one(leaf("year", "1903")), one(leaf("director", "Jaws 2"))),
		movie(leaf("title", "Heat"), one(leaf("year", "1995")), one(leaf("director", "Heat"))),
		// An uncertain title.
		pxml.NewElem("movie", "",
			pxml.NewProb(pxml.NewPoss(0.5, leaf("title", "Alien")), pxml.NewPoss(0.5, leaf("title", "Alien 3"))),
			one(leaf("year", "1979"))),
		// Anchors nested in anchors; the literal sits at different depths.
		pxml.NewElem("a", "", one(leaf("b", "x y")), one(pxml.NewElem("a", "", one(leaf("c", "1"))))),
		pxml.NewElem("a", "", one(leaf("b", "z")), one(pxml.NewElem("a", "", one(leaf("b", "x y")), one(leaf("c", "2")),
			pxml.NewProb(pxml.NewPoss(0.7, pxml.NewElem("a", "", one(leaf("c", "3")))), pxml.NewPoss(0.3))))),
		pxml.NewElem("a", "", one(leaf("b", "x")), one(leaf("b", "y")), one(leaf("c", "4"))),
	}
	for _, x := range extras {
		if rng.Intn(2) == 0 {
			records = append(records, x)
		}
	}
	rng.Shuffle(len(records), func(i, j int) { records[i], records[j] = records[j], records[i] })
	var kids []*pxml.Node
	choices := 0
	for i := 0; i < len(records); i++ {
		if i+1 < len(records) && choices < 4 && rng.Intn(3) == 0 {
			p := 0.2 + 0.6*rng.Float64()
			second := pxml.NewPoss(1-p, records[i+1])
			if rng.Intn(2) == 0 {
				second = pxml.NewPoss(1-p, records[i], records[i+1])
			}
			kids = append(kids, pxml.NewProb(pxml.NewPoss(p, records[i]), second))
			choices++
			i++
			continue
		}
		kids = append(kids, one(records[i]))
	}
	return pxml.CertainTree(pxml.NewElem("catalog", "", kids...))
}

// planned runs the planned executor, with its literal gate or — gate false —
// with the literal requirements taken out of its needs: every subtree that
// has the tags is walked, every anchor reached is enumerated.
func planned(t *testing.T, tree *pxml.Tree, q *Query, gate bool) ([]Answer, *exactEval) {
	t.Helper()
	e, err := newExactEval(q, 0)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	if !gate {
		for i := range e.need {
			e.need[i].litMask, e.need[i].lits = pxml.Bloom{}, nil
		}
	}
	answers, err := e.run(tree)
	if err != nil {
		t.Fatalf("%s: gate %v: %v", q, gate, err)
	}
	if !gate && e.anchorsSkipped != 0 {
		t.Fatalf("%s: the ungated executor skipped %d anchors", q, e.anchorsSkipped)
	}
	return answers, e
}

func answersWithin(a, b []Answer, tol float64) bool {
	am := map[string]float64{}
	for _, x := range a {
		am[x.Value] = x.P
	}
	for _, y := range b {
		if math.Abs(am[y.Value]-y.P) > tol {
			return false
		}
		delete(am, y.Value)
	}
	for _, p := range am {
		if p > tol {
			return false
		}
	}
	return true
}

// TestGatedEqualsUngated: the summary gate and the exact check at the
// anchor only ever skip work whose result is "no value, failure probability
// 1", which the exact executor short-circuits to exactly 1 anyway — so the
// gated answers carry the same float64 bits as the ungated ones, and agree
// with possible-world enumeration. ConditionAbsent shares the gate and must
// build the same tree with the same prior as the walk that enumerates every
// anchor.
func TestGatedEqualsUngated(t *testing.T) {
	var nonEmpty, visitsSaved, conditioned int
	var skipped int64
	for seed := int64(0); seed < 240; seed++ {
		tree := gateDocument(rand.New(rand.NewSource(seed)))
		for _, src := range gateQueries {
			q := MustCompile(src)
			want, gated := planned(t, tree, q, true)
			res, err := Eval(tree, q, Options{Method: MethodExact})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, src, err)
			}
			if !reflect.DeepEqual(res.Answers, want) {
				t.Fatalf("seed %d %s: Eval answers differ:\n%v\n%v", seed, src, res.Answers, want)
			}
			if res.Exec.AnchorsEnumerated != gated.anchorsEnumerated || res.Exec.AnchorsSkipped != gated.anchorsSkipped {
				t.Fatalf("seed %d %s: Eval reports %+v, the executor enumerated %d anchors and skipped %d",
					seed, src, res.Exec, gated.anchorsEnumerated, gated.anchorsSkipped)
			}
			all, ungated := planned(t, tree, q, false)
			if !reflect.DeepEqual(all, want) {
				t.Fatalf("seed %d %s: gated and ungated differ in a bit:\ngated:   %v\nungated: %v\n%s",
					seed, src, want, all, tree)
			}
			visitsSaved += ungated.visited - gated.visited
			skipped += gated.anchorsSkipped
			if len(want) > 0 {
				nonEmpty++
			}
			enum, err := EvalEnumerate(tree, q, 0)
			if err != nil {
				t.Fatalf("seed %d %s: enumerate: %v", seed, src, err)
			}
			if !answersWithin(want, enum, 1e-9) {
				t.Fatalf("seed %d %s: gated %v, enumeration %v\n%s", seed, src, want, enum, tree)
			}

			// Reject the least likely answer, or one the query never gives.
			value := "no such answer"
			if len(want) > 0 {
				value = want[len(want)-1].Value
			}
			got, gotP, gotErr := ConditionAbsent(tree, q, value, 0)
			ev, err := newExactEval(q, 0)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, src, err)
			}
			ev.need = nil
			ref, refP, refErr := ev.conditionAbsent(tree, value)
			if (gotErr == nil) != (refErr == nil) || errors.Is(gotErr, ErrContradiction) != errors.Is(refErr, ErrContradiction) {
				t.Fatalf("seed %d %s: rejecting %q: gated error %v, with every anchor enumerated %v", seed, src, value, gotErr, refErr)
			}
			if gotErr != nil {
				continue
			}
			if gotP != refP || !pxml.Equal(got.Root(), ref.Root()) {
				t.Fatalf("seed %d %s: rejecting %q: gated prior %v, with every anchor enumerated %v; trees\n%s\n%s",
					seed, src, value, gotP, refP, got, ref)
			}
			conditioned++
		}
	}
	if nonEmpty < 1000 || skipped < 200 || visitsSaved < 1000 || conditioned < 2000 {
		t.Fatalf("corpus too thin: %d non-empty answers, %d anchors skipped, %d visits saved, %d rejections compared",
			nonEmpty, skipped, visitsSaved, conditioned)
	}
	t.Logf("%d non-empty answers, %d anchors skipped, %d visits saved, %d rejections compared", nonEmpty, skipped, visitsSaved, conditioned)
}

// TestColumnMissFailsCanMatch: productDist skips a child on its entry in
// the parent's column of fingerprints, without reading the child's summary,
// and counts it as a pruned visit. That is sound only if a column miss means
// canMatch is false: checked for every child of every node with a column,
// under every set of pending states, after run has derived the masks. The
// visits and pruned visits an evaluation counts must equal those of a walk
// that asks canMatch of every child.
func TestColumnMissFailsCanMatch(t *testing.T) {
	misses := 0
	for seed := int64(0); seed < 60; seed++ {
		tree := gateDocument(rand.New(rand.NewSource(seed)))
		for _, src := range gateQueries {
			e, err := newExactEval(MustCompile(src), 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.run(tree); err != nil {
				t.Fatalf("seed %d %s: %v", seed, src, err)
			}
			pxml.Walk(tree.Root(), func(n *pxml.Node) bool {
				for i, b := range n.Summary().KidBlooms {
					for states := stateSet(1); states < 1<<(e.anchorIdx+1); states++ {
						if e.textAdmits(b, states) {
							continue
						}
						misses++
						if e.canMatch(n.Child(i), states) {
							t.Fatalf("seed %d %s: child %d misses in the column under states %b, but canMatch passes it",
								seed, src, i, states)
						}
					}
				}
				return true
			})
			if visited, pruned := canMatchWalk(e, tree.Root()); e.visited != visited || e.prunedSubtrees != pruned {
				t.Fatalf("seed %d %s: the evaluation counts %d visits, %d pruned; asking canMatch of every child gives %d, %d",
					seed, src, e.visited, e.prunedSubtrees, visited, pruned)
			}
		}
	}
	if misses < 10000 {
		t.Fatalf("corpus too thin: %d column misses", misses)
	}
	t.Logf("%d column misses, each failing canMatch", misses)
}

// canMatchWalk counts the visits and pruned visits of dist's recursion from
// root, asking canMatch of every node it reaches: a pruned (node, state
// set) pair counts each time it is reached, any other once.
func canMatchWalk(e *exactEval, root *pxml.Node) (visited, pruned int) {
	seen := map[localKey]bool{}
	var walk func(n *pxml.Node, states stateSet)
	walk = func(n *pxml.Node, states stateSet) {
		if states == 0 {
			return
		}
		if !e.canMatch(n, states) {
			visited++
			pruned++
			return
		}
		if seen[localKey{n, states}] {
			return
		}
		seen[localKey{n, states}] = true
		visited++
		if n.Kind() == pxml.KindElem {
			next, hit := e.advance(n, states)
			if hit {
				return
			}
			states = next
		}
		for _, k := range n.Children() {
			walk(k, states)
		}
	}
	walk(root, stateSet(1))
	return visited, pruned
}
