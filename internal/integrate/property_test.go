package integrate_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dtd"
	"repro/internal/integrate"
	"repro/internal/oracle"
	"repro/internal/pxml"
	"repro/internal/worlds"
)

// randomBook generates a small random certain address book with names and
// phones drawn from tiny pools, so that cross-source collisions (and thus
// undecided pairs, must-matches and cannot-matches) all occur.
func randomBook(rng *rand.Rand) *pxml.Tree {
	names := []string{"John", "Mary", "Ada"}
	tels := []string{"1", "2", "3"}
	n := 1 + rng.Intn(3)
	persons := make([]*pxml.Node, n)
	for i := range persons {
		kids := []*pxml.Node{pxml.Certain(pxml.NewLeaf("nm", names[rng.Intn(len(names))]))}
		if rng.Intn(4) > 0 {
			kids = append(kids, pxml.Certain(pxml.NewLeaf("tel", tels[rng.Intn(len(tels))])))
		}
		persons[i] = pxml.NewElem("person", "", kids...)
	}
	return pxml.CertainTree(pxml.NewElem("addressbook", "", pxml.Certain(persons...)))
}

// leafValues collects tag→set-of-texts over a certain element tree.
func leafValues(elems []*pxml.Node, acc map[string]map[string]bool) {
	for _, e := range elems {
		pxml.Walk(e, func(n *pxml.Node) bool {
			if n.Kind() == pxml.KindElem && n.Text() != "" {
				if acc[n.Tag()] == nil {
					acc[n.Tag()] = map[string]bool{}
				}
				acc[n.Tag()][n.Text()] = true
			}
			return true
		})
	}
}

// TestIntegrationInvariants is the integration engine's property suite:
// over random source pairs, the result must validate, its world
// probabilities must sum to 1, every world must satisfy the schema, every
// leaf value in any world must stem from one of the sources, and the
// whole computation must be deterministic.
func TestIntegrationInvariants(t *testing.T) {
	schema := dtd.MustParse(`
		<!ELEMENT addressbook (person*)>
		<!ELEMENT person (nm, tel?)>
		<!ELEMENT nm (#PCDATA)>
		<!ELEMENT tel (#PCDATA)>
	`)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomBook(rng), randomBook(rng)
		cfg := integrate.Config{Oracle: oracle.New(nil), Schema: schema}
		res, _, err := integrate.Integrate(a, b, cfg)
		if errors.Is(err, integrate.ErrMustConflict) {
			// Duplicate persons within one source can deep-equal the same
			// counterpart; a legal outcome for random data.
			return true
		}
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if res.Validate() != nil {
			return false
		}
		// Probabilities over all worlds sum to 1.
		if wc := res.WorldCount(); wc.IsInt64() && wc.Int64() <= 3000 {
			if math.Abs(worlds.TotalProbability(res)-1) > 1e-6 {
				return false
			}
			// Schema holds in every world, and leaf values stem from the
			// sources.
			sourceVals := map[string]map[string]bool{}
			leafValues(a.RootElements(), sourceVals)
			leafValues(b.RootElements(), sourceVals)
			ok := true
			worlds.Enumerate(res, func(w worlds.World) bool {
				for _, e := range w.Elements {
					if schema.ValidateElement(e) != nil {
						ok = false
						return false
					}
				}
				vals := map[string]map[string]bool{}
				leafValues(w.Elements, vals)
				for tag, set := range vals {
					for v := range set {
						if !sourceVals[tag][v] {
							t.Logf("seed %d: world value %s=%q not in sources", seed, tag, v)
							ok = false
							return false
						}
					}
				}
				return true
			})
			if !ok {
				return false
			}
		}
		// Determinism.
		res2, _, err := integrate.Integrate(a, b, cfg)
		return err == nil && pxml.Equal(res.Root(), res2.Root())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestIntegrationNeverLosesCertainData checks that, with a rule
// forbidding matches between differently-named persons (so merged persons
// never get an uncertain name), every source name exists in every world
// and every phone number survives in at least one world. Without such a
// rule a merged person's name may itself become a choice — semantically
// correct, but then a name can be absent from some worlds.
func TestIntegrationNeverLosesCertainData(t *testing.T) {
	schema := dtd.MustParse(`
		<!ELEMENT addressbook (person*)>
		<!ELEMENT person (nm, tel?)>
		<!ELEMENT nm (#PCDATA)>
		<!ELEMENT tel (#PCDATA)>
	`)
	nameGate := oracle.NewRule("same-name-gate", func(x, y *pxml.Node) oracle.Verdict {
		if x.Tag() == "person" && pxml.CertainText(x, "nm") != pxml.CertainText(y, "nm") {
			return oracle.Verdict{Decision: oracle.CannotMatch, Rule: "same-name-gate"}
		}
		return oracle.Verdict{Decision: oracle.Unknown}
	})
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 60; i++ {
		a, b := randomBook(rng), randomBook(rng)
		res, _, err := integrate.Integrate(a, b, integrate.Config{Oracle: oracle.New([]oracle.Rule{nameGate}), Schema: schema})
		if errors.Is(err, integrate.ErrMustConflict) {
			continue
		}
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if wc := res.WorldCount(); !wc.IsInt64() || wc.Int64() > 3000 {
			continue
		}
		sourceTels := map[string]bool{}
		src := map[string]map[string]bool{}
		leafValues(a.RootElements(), src)
		leafValues(b.RootElements(), src)
		for v := range src["tel"] {
			sourceTels[v] = true
		}
		seenTels := map[string]bool{}
		worlds.Enumerate(res, func(w worlds.World) bool {
			vals := map[string]map[string]bool{}
			leafValues(w.Elements, vals)
			for v := range vals["tel"] {
				seenTels[v] = true
			}
			// Every source name must exist in every world: merging keeps
			// nm, and unmatched persons are carried over.
			for v := range src["nm"] {
				if !vals["nm"][v] {
					t.Fatalf("iteration %d: name %q missing from a world\n%s", i, v, res)
				}
			}
			return true
		})
		for v := range sourceTels {
			if !seenTels[v] {
				t.Fatalf("iteration %d: phone %q lost from all worlds", i, v)
			}
		}
	}
}

// TestIntegrateIdempotentOnCertainResult integrates a source with itself
// twice: A ⊕ A is certain and equals A (up to trivial grouping), and
// integrating the result with A again stays certain.
func TestIntegrateIdempotentOnCertainResult(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	schema := dtd.MustParse(`
		<!ELEMENT addressbook (person*)>
		<!ELEMENT person (nm, tel?)>
		<!ELEMENT nm (#PCDATA)>
		<!ELEMENT tel (#PCDATA)>
	`)
	for i := 0; i < 30; i++ {
		a := randomBook(rng)
		res, _, err := integrate.Integrate(a, a, integrate.Config{Oracle: oracle.New(nil), Schema: schema})
		if errors.Is(err, integrate.ErrMustConflict) {
			continue // duplicate siblings within the book
		}
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if !res.IsCertain() {
			t.Fatalf("iteration %d: A ⊕ A not certain:\n%s", i, res)
		}
		if !pxml.DeepEqualElems(res.RootElements()[0], a.RootElements()[0]) {
			t.Fatalf("iteration %d: A ⊕ A ≠ A\nA:\n%s\nresult:\n%s", i, a, res)
		}
		res2, _, err := integrate.Integrate(res, a, integrate.Config{Oracle: oracle.New(nil), Schema: schema})
		if err != nil {
			t.Fatalf("iteration %d second round: %v", i, err)
		}
		if !res2.IsCertain() {
			t.Fatalf("iteration %d: (A ⊕ A) ⊕ A not certain", i)
		}
	}
}

// TestWeightASkewsValueConflicts drives the source-trust weight through a
// sweep — including the boundary WeightA = 1, full trust in source A —
// and checks the merged-value marginals follow it.
func TestWeightASkewsValueConflicts(t *testing.T) {
	a := mustDecode(t, `<note>alpha</note>`)
	b := mustDecode(t, `<note>beta</note>`)
	for _, wa := range []float64{0.1, 0.25, 0.5, 0.9, 1} {
		res, _, err := integrate.Integrate(a, b, integrate.Config{Oracle: oracle.New(nil), WeightA: wa})
		if err != nil {
			t.Fatalf("WeightA=%v: %v", wa, err)
		}
		pAlpha := 0.0
		worlds.Enumerate(res, func(w worlds.World) bool {
			if w.Elements[0].Text() == "alpha" {
				pAlpha += w.P
			}
			return true
		})
		if math.Abs(pAlpha-wa) > 1e-9 {
			t.Fatalf("WeightA=%v: P(alpha) = %v", wa, pAlpha)
		}
		if wa == 1 {
			if res.Validate() != nil || !res.IsCertain() {
				t.Fatalf("WeightA=1: result must be certain and valid:\n%s", res)
			}
		}
	}
}

// TestWeightAOutOfRangeRejected checks that invalid trust weights are an
// explicit error rather than being silently coerced to the default.
func TestWeightAOutOfRangeRejected(t *testing.T) {
	a := mustDecode(t, `<note>alpha</note>`)
	b := mustDecode(t, `<note>beta</note>`)
	for _, bad := range []float64{-0.5, -1e-9, 1.000001, 42, math.NaN()} {
		_, _, err := integrate.Integrate(a, b, integrate.Config{Oracle: oracle.New(nil), WeightA: bad})
		if err == nil {
			t.Fatalf("WeightA=%v: want error, got nil", bad)
		}
	}
}

// TestStatsAccounting cross-checks the reported statistics on a scenario
// with a known structure.
func TestStatsAccounting(t *testing.T) {
	a := mustDecode(t, `<addressbook>`+
		`<person><nm>John</nm><tel>1</tel></person>`+
		`<person><nm>Mary</nm><tel>2</tel></person>`+
		`</addressbook>`)
	b := mustDecode(t, `<addressbook>`+
		`<person><nm>John</nm><tel>1</tel></person>`+ // deep-equal to A's John
		`<person><nm>Zoe</nm><tel>9</tel></person>`+
		`</addressbook>`)
	res, stats, err := integrate.Integrate(a, b, integrate.Config{Oracle: oracle.New(nil), Schema: personDTD})
	if err != nil {
		t.Fatalf("Integrate: %v", err)
	}
	if stats.OracleCalls == 0 || stats.MustPairs == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.MustPairs+stats.CannotPairs+stats.UndecidedPairs != stats.OracleCalls {
		t.Fatalf("verdict counts don't add up: %+v", stats)
	}
	if stats.Components == 0 || stats.MatchingsEnumerated < stats.Components {
		t.Fatalf("component accounting: %+v", stats)
	}
	if stats.PossibilitiesBuilt < stats.Components {
		t.Fatalf("possibility accounting: %+v", stats)
	}
	_ = fmt.Sprintf("%v", res)
}
