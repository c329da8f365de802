package query_test

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/pxml"
	"repro/internal/pxmltest"
	"repro/internal/query"
	"repro/internal/worlds"
)

func TestConditionAbsentRemovesWorlds(t *testing.T) {
	tr := pxmltest.Fig2Tree() // worlds: {1111}=0.3, {2222}=0.3, both=0.4
	q := query.MustCompile(`//person/tel`)
	nt, p, err := query.ConditionAbsent(tr, q, "2222", 0)
	if err != nil {
		t.Fatalf("ConditionAbsent: %v", err)
	}
	if math.Abs(p-0.3) > 1e-9 {
		t.Fatalf("prior P(no 2222) = %v, want 0.3", p)
	}
	if err := nt.Validate(); err != nil {
		t.Fatalf("conditioned tree invalid: %v", err)
	}
	// Only the {1111} world survives, with probability 1.
	if got := nt.WorldCount(); got.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("worlds after = %s, want 1\n%s", got, nt)
	}
	res, err := query.Eval(nt, q, query.Options{})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if math.Abs(res.P("1111")-1) > 1e-9 || res.P("2222") != 0 {
		t.Fatalf("answers after feedback = %v", res.Answers)
	}
}

func TestConditionAbsentRenormalizesSurvivors(t *testing.T) {
	// Reject an answer that only some worlds produce; survivors keep
	// their relative probabilities.
	tr := pxmltest.Fig2Tree()
	q := query.MustCompile(`//addressbook[person/tel="2222" and person/tel="1111"]/person/nm`)
	// This query matches only the two-person world (the merged person has
	// a single phone in each world).
	nt, p, err := query.ConditionAbsent(tr, q, "John", 0)
	if err != nil {
		t.Fatalf("ConditionAbsent: %v", err)
	}
	if math.Abs(p-0.6) > 1e-9 {
		t.Fatalf("prior = %v, want 0.6 (merged-person worlds)", p)
	}
	res, err := query.Eval(nt, query.MustCompile(`//person/tel`), query.Options{})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	// Survivors: {1111} and {2222} at 0.5 each.
	if math.Abs(res.P("1111")-0.5) > 1e-9 || math.Abs(res.P("2222")-0.5) > 1e-9 {
		t.Fatalf("answers = %v", res.Answers)
	}
}

func TestConditionAbsentContradiction(t *testing.T) {
	tr := pxmltest.Fig2Tree()
	q := query.MustCompile(`//person/nm`)
	_, _, err := query.ConditionAbsent(tr, q, "John", 0)
	if !errors.Is(err, query.ErrContradiction) {
		t.Fatalf("err = %v, want ErrContradiction (John exists in every world)", err)
	}
}

func TestConditionPresent(t *testing.T) {
	tr := pxmltest.Fig2Tree()
	q := query.MustCompile(`//person/tel`)
	nt, p, err := query.ConditionPresent(tr, q, "2222", 0)
	if err != nil {
		t.Fatalf("ConditionPresent: %v", err)
	}
	if math.Abs(p-0.7) > 1e-9 {
		t.Fatalf("prior P(2222 present) = %v, want 0.7", p)
	}
	res, err := query.Eval(nt, q, query.Options{})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if math.Abs(res.P("2222")-1) > 1e-9 {
		t.Fatalf("P(2222) after confirm = %v", res.P("2222"))
	}
	// 1111 survives only in the both-phones world: 0.4/0.7.
	if math.Abs(res.P("1111")-0.4/0.7) > 1e-9 {
		t.Fatalf("P(1111) after confirm = %v, want %v", res.P("1111"), 0.4/0.7)
	}
}

func TestConditionPresentContradiction(t *testing.T) {
	tr := pxmltest.Fig2Tree()
	_, _, err := query.ConditionPresent(tr, query.MustCompile(`//person/tel`), "9999", 0)
	if !errors.Is(err, query.ErrContradiction) {
		t.Fatalf("err = %v", err)
	}
}

func TestConditionPresentWorldLimit(t *testing.T) {
	tr := pxmltest.Fig2Tree()
	_, _, err := query.ConditionPresent(tr, query.MustCompile(`//person/tel`), "1111", 2)
	if !errors.Is(err, query.ErrTooComplex) {
		t.Fatalf("err = %v, want ErrTooComplex", err)
	}
}

// Property: conditioning on absence must equal brute-force world filtering.
func TestConditionAbsentMatchesWorldFiltering(t *testing.T) {
	queries := []*query.Query{
		query.MustCompile(`//a`),
		query.MustCompile(`//movie/title`),
		query.MustCompile(`//movie[title]/title`),
		query.MustCompile(`//a//b`),
		query.MustCompile(`//c[a="x"]/b`),
	}
	rng := rand.New(rand.NewSource(13))
	cfg := pxmltest.DefaultGenConfig()
	checked := 0
	for i := 0; i < 80 && checked < 60; i++ {
		tr := pxmltest.RandomTree(rng, cfg)
		if wc := tr.WorldCount(); !wc.IsInt64() || wc.Int64() > 500 {
			continue
		}
		for _, q := range queries {
			// Pick a value the query can produce.
			full, err := query.EvalEnumerate(tr, q, 1000)
			if err != nil || len(full) == 0 {
				continue
			}
			value := full[0].Value
			if full[0].P >= 1-1e-12 {
				if len(full) > 1 {
					value = full[len(full)-1].Value
				}
				if value == full[0].Value && full[0].P >= 1-1e-12 {
					continue // all answers certain; conditioning contradicts
				}
			}
			nt, prior, err := query.ConditionAbsent(tr, q, value, 0)
			if errors.Is(err, query.ErrContradiction) {
				continue
			}
			if err != nil {
				t.Fatalf("doc %d ConditionAbsent(%s,%q): %v", i, q, value, err)
			}
			// Brute force: filter worlds without the value, renormalize,
			// evaluate a probe query; compare marginals.
			probe := query.MustCompile(`//*`)
			want := map[string]float64{}
			total := 0.0
			worlds.Enumerate(tr, func(w worlds.World) bool {
				if !query.EvalWorld(q, w.Elements)[value] {
					total += w.P
					for v := range query.EvalWorld(probe, w.Elements) {
						want[v] += w.P
					}
				}
				return true
			})
			if math.Abs(prior-total) > 1e-9 {
				t.Fatalf("doc %d %s: prior %v, brute force %v", i, q, prior, total)
			}
			got, err := query.EvalEnumerate(nt, probe, 5000)
			if err != nil {
				t.Fatalf("probe: %v", err)
			}
			gm := map[string]float64{}
			for _, a := range got {
				gm[a.Value] = a.P
			}
			for v, p := range want {
				if math.Abs(gm[v]-p/total) > 1e-9 {
					t.Fatalf("doc %d cond(%s,%q): P(%q) = %v, want %v\ntree:\n%s", i, q, value, v, gm[v], p/total, tr)
				}
			}
			checked++
		}
	}
	if checked < 20 {
		t.Fatalf("too few checks: %d", checked)
	}
}

func TestConditionedTreesStayValid(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	cfg := pxmltest.DefaultGenConfig()
	q := query.MustCompile(`//movie/title`)
	for i := 0; i < 40; i++ {
		tr := pxmltest.RandomTree(rng, cfg)
		if wc := tr.WorldCount(); !wc.IsInt64() || wc.Int64() > 300 {
			continue
		}
		full, err := query.EvalEnumerate(tr, q, 1000)
		if err != nil || len(full) == 0 || full[len(full)-1].P >= 1-1e-12 {
			continue
		}
		nt, _, err := query.ConditionAbsent(tr, q, full[len(full)-1].Value, 0)
		if errors.Is(err, query.ErrContradiction) {
			continue
		}
		if err != nil {
			t.Fatalf("ConditionAbsent: %v", err)
		}
		if err := nt.Validate(); err != nil {
			t.Fatalf("conditioned tree invalid: %v", err)
		}
		if math.Abs(worlds.TotalProbability(nt)-1) > 1e-6 {
			t.Fatalf("conditioned probabilities do not sum to 1")
		}
	}
}

func TestConditionAbsentPreservesSharingWherePossible(t *testing.T) {
	tr := pxmltest.Fig2Tree()
	q := query.MustCompile(`//person/tel`)
	nt, _, err := query.ConditionAbsent(tr, q, "2222", 0)
	if err != nil {
		t.Fatalf("ConditionAbsent: %v", err)
	}
	// Only the merged person survives. Its nm leaf and the trivial choice
	// point above it are untouched by conditioning: both must be the
	// input's nodes, not copies.
	merged := tr.RootElements()[0].Child(0).Child(0).Child(0)
	person := nt.RootElements()[0].Child(0).Child(0).Child(0)
	if person.Tag() != "person" || merged.Tag() != "person" {
		t.Fatalf("unexpected shape:\n%s", nt)
	}
	if person.Child(0) != merged.Child(0) {
		t.Fatalf("the nm choice point was rebuilt:\n%s", nt)
	}
	if nm := person.Child(0).Child(0).Child(0); nm != merged.Child(0).Child(0).Child(0) || nm.Tag() != "nm" {
		t.Fatalf("the nm leaf is not the input's node:\n%s", nt)
	}

	// A value no world yields leaves the document as it is, with a prior of
	// exactly 1.
	nt, p, err := query.ConditionAbsent(tr, q, "9999", 0)
	if err != nil {
		t.Fatalf("ConditionAbsent: %v", err)
	}
	if nt.Root() != tr.Root() || p != 1 {
		t.Fatalf("rejecting a value that occurs nowhere: prior %v, root kept %v", p, nt.Root() == tr.Root())
	}
}

// directorCatalog is a datagen catalog of n movies, each with its own
// director, in which the director of one movie is uncertain: the source
// conventions "Ridley Scott" and "Scott, Ridley" are the two alternatives
// of the movie's one choice point.
func directorCatalog(n int) *pxml.Tree {
	kids := make([]*pxml.Node, n)
	for i := range kids {
		m := datagen.Movie{
			Title:     fmt.Sprintf("Film %d", i),
			Year:      1950 + i%56,
			Genres:    []string{"Drama"},
			Directors: []string{fmt.Sprintf("Director %d", i)},
		}
		kids[i] = pxml.Certain(datagen.MovieElem(m, datagen.ConvIMDB))
	}
	m := datagen.Movie{Title: "Alien", Year: 1979, Genres: []string{"Horror"}, Directors: []string{"Ridley Scott"}}
	kids[n/3] = pxml.NewProb(pxml.NewPoss(0.5, datagen.MovieElem(m, datagen.ConvMPEG7)),
		pxml.NewPoss(0.5, datagen.MovieElem(m, datagen.ConvIMDB)))
	return pxml.CertainTree(pxml.NewElem("catalog", "", kids...))
}

// rebuiltNodes counts the distinct nodes reachable from after but not from
// before.
func rebuiltNodes(before, after *pxml.Tree) int {
	old := map[*pxml.Node]bool{}
	pxml.WalkUnique(before.Root(), func(n *pxml.Node) bool {
		old[n] = true
		return true
	})
	rebuilt := 0
	pxml.WalkUnique(after.Root(), func(n *pxml.Node) bool {
		if old[n] {
			return false
		}
		rebuilt++
		return true
	})
	return rebuilt
}

// TestConditionAbsentRebuildsDoNotScaleWithCatalog: rejecting one movie's
// director rebuilds the path from the root to that movie's choice point and
// nothing else, so the count of new nodes is the same on 200 movies as on
// 2 000.
func TestConditionAbsentRebuildsDoNotScaleWithCatalog(t *testing.T) {
	q := query.MustCompile(`//movie/director`)
	rebuilt := func(n int) int {
		tr := directorCatalog(n)
		nt, p, err := query.ConditionAbsent(tr, q, "Scott, Ridley", 0)
		if err != nil || p != 0.5 {
			t.Fatalf("%d movies: prior %v, err %v", n, p, err)
		}
		if err := nt.Validate(); err != nil {
			t.Fatalf("%d movies: %v", n, err)
		}
		if got := nt.WorldCount(); got.Cmp(big.NewInt(1)) != 0 {
			t.Fatalf("%d movies: %s worlds after the rejection, want 1", n, got)
		}
		return rebuiltNodes(tr, nt)
	}
	narrow, wide := rebuilt(200), rebuilt(2000)
	t.Logf("%d nodes rebuilt on 200 movies, %d on 2 000", narrow, wide)
	if narrow != wide {
		t.Fatalf("%d nodes rebuilt on 200 movies, %d on 2 000: the rejection rewrites what it cannot touch", narrow, wide)
	}
}
