package integrate_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/integrate"
	"repro/internal/oracle"
	"repro/internal/pxml"
	"repro/internal/pxmltest"
)

// keyless is a rule stripped of its blocking keys: every pair reaches it.
type keyless struct{ oracle.Rule }

func (keyless) BlockKey(*pxml.Node) string { return "" }

func withoutKeys(rules []oracle.Rule) []oracle.Rule {
	out := make([]oracle.Rule, len(rules))
	for i, r := range rules {
		out[i] = keyless{r}
	}
	return out
}

const (
	jaws1975 = `<catalog><movie><title>Jaws</title><year>1975</year></movie></catalog>`
	jaws1978 = `<catalog><movie><title>Jaws</title><year>1978</year></movie></catalog>`
)

// sameTitle is a must-match rule that contradicts the year rule on the two
// Jaws catalogs above.
var sameTitle = oracle.NewRule("same-title", func(a, b *pxml.Node) oracle.Verdict {
	if a.Tag() == "movie" && pxml.CertainText(a, "title") == pxml.CertainText(b, "title") {
		return oracle.Verdict{Decision: oracle.MustMatch, P: 1}
	}
	return oracle.Verdict{}
})

// TestStrictOracleSeesBlockedPairs: under Strict a must/cannot conflict is
// an error, not a verdict, so a pair the year keys rule out must still
// reach the conflicting rule.
func TestStrictOracleSeesBlockedPairs(t *testing.T) {
	rules := []oracle.Rule{oracle.YearRule(), sameTitle}
	_, _, err := integrate.Integrate(mustDecode(t, jaws1975), mustDecode(t, jaws1978),
		integrate.Config{Oracle: oracle.New(rules, oracle.Strict())})
	var conflict *oracle.ConflictError
	if !errors.As(err, &conflict) {
		t.Fatalf("strict integration of a year/title conflict: err = %v, want a *oracle.ConflictError", err)
	}
}

// TestBlockedPairIsNotAnOracleCall: without Strict the same conflict
// resolves to cannot-match; with keys the pair is never put to the Oracle,
// without them it is, and the results are the same document.
func TestBlockedPairIsNotAnOracleCall(t *testing.T) {
	rules := []oracle.Rule{oracle.YearRule(), sameTitle}
	blocked, stB, err := integrate.Integrate(mustDecode(t, jaws1975), mustDecode(t, jaws1978),
		integrate.Config{Oracle: oracle.New(rules)})
	if err != nil {
		t.Fatal(err)
	}
	asked, stA, err := integrate.Integrate(mustDecode(t, jaws1975), mustDecode(t, jaws1978),
		integrate.Config{Oracle: oracle.New(withoutKeys(rules))})
	if err != nil {
		t.Fatal(err)
	}
	if !pxml.Equal(blocked.Root(), asked.Root()) {
		t.Fatalf("results differ:\nwith keys:\n%s\nwithout:\n%s", blocked, asked)
	}
	if stB.OracleCalls != 0 || stB.CannotPairs != 0 {
		t.Fatalf("with keys the pair should not be an Oracle call: %+v", stB)
	}
	if stA.OracleCalls != 1 || stA.CannotPairs != 1 {
		t.Fatalf("without keys the pair should be one cannot-match call: %+v", stA)
	}
}

// timed stands for a rule defined outside package oracle that embeds a
// built-in one and overrides Apply, as the benchmark's timed rules do: it
// keeps the embedded rule's blocking keys.
type timed struct{ oracle.Rule }

func (r timed) Apply(a, b *pxml.Node) oracle.Verdict { return r.Rule.Apply(a, b) }

// certainChildren lists the certain child elements of t's root element, as
// the integrator pairs them.
func certainChildren(t *pxml.Tree) []*pxml.Node {
	var out []*pxml.Node
	for _, prob := range t.RootElements()[0].Children() {
		if prob.NumChildren() == 1 {
			out = append(out, prob.Child(0).Children()...)
		}
	}
	return out
}

// joinDiff compares the pairs a Pairing's join enumerates for as × bs with
// those the nested loop over every pair leaves unblocked, in (i, j) order.
func joinDiff(o *oracle.Oracle, as, bs []*pxml.Node) string {
	p := o.Pair(as, bs)
	defer p.Release()
	var joined, nested [][2]int
	for i := range as {
		for _, j := range p.Candidates(i) {
			joined = append(joined, [2]int{i, j})
		}
		for j := range bs {
			if !p.Blocked(i, j) {
				nested = append(nested, [2]int{i, j})
			}
		}
	}
	if !slices.Equal(joined, nested) {
		return fmt.Sprintf("the join enumerates %v, the nested loop %v", joined, nested)
	}
	return ""
}

// TestBlockedEqualsUnblocked is the soundness property of blocking: over
// seeded random catalogs whose key field is present, absent, duplicated or
// under a choice point — folded one into the next, so that later sources
// meet movies merged and left uncertain by earlier ones — integrating with
// the stock rules and with the same rules stripped of their keys gives the
// same document. The pairs blocking skips are all cannot-match, so the
// other pair counters agree too. It holds for the movie rules, under
// Strict (which blocks nothing), with two KeyField rules and with rules
// wrapped in a type of another package; and the pairs the Pairing's join
// enumerates are, in order, those the nested loop over every pair leaves
// unblocked.
func TestBlockedEqualsUnblocked(t *testing.T) {
	schema := datagen.MovieDTD()
	est := oracle.WithEstimator("movie", oracle.TitleEstimator())
	movie := oracle.SetGenreTitleYear.Rules()
	twoKeys := append(oracle.SetGenreTitleYear.Rules(), oracle.KeyField("movie", "director"))
	var wrapped []oracle.Rule
	for _, r := range oracle.SetGenreTitleYear.Rules() {
		wrapped = append(wrapped, timed{r})
	}
	variants := []struct {
		name  string
		rules []oracle.Rule
		opts  []oracle.Option
	}{
		{"movie", movie, []oracle.Option{est}},
		{"strict", movie, []oracle.Option{oracle.Strict()}},
		{"two keys", twoKeys, []oracle.Option{est}},
		{"wrapped", wrapped, []oracle.Option{est}},
	}
	for _, v := range variants {
		var integrations, skipped int
		for seed := int64(0); seed < 200; seed++ {
			rng := rand.New(rand.NewSource(seed))
			stock := integrate.Config{Oracle: oracle.New(v.rules, v.opts...), Schema: schema}
			bare := stock
			bare.Oracle = oracle.New(withoutKeys(v.rules), v.opts...)
			doc := pxmltest.RandomCatalog(rng, 2+rng.Intn(5))
			for step := 0; step < 3; step++ {
				src := pxmltest.RandomCatalog(rng, 2+rng.Intn(5))
				if d := joinDiff(stock.Oracle, certainChildren(doc), certainChildren(src)); d != "" {
					t.Fatalf("%s: seed %d step %d: %s", v.name, seed, step, d)
				}
				got, stB, errB := integrate.Integrate(doc, src, stock)
				want, stA, errA := integrate.Integrate(doc, src, bare)
				if (errB == nil) != (errA == nil) || (errB != nil && errB.Error() != errA.Error()) {
					t.Fatalf("%s: seed %d step %d: with keys err %v, without %v", v.name, seed, step, errB, errA)
				}
				if errB != nil {
					continue // the document stays; the next source may integrate
				}
				if !pxml.Equal(got.Root(), want.Root()) {
					t.Fatalf("%s: seed %d step %d: documents differ\nwith keys:\n%s\nwithout:\n%s", v.name, seed, step, got, want)
				}
				if got.WorldCount().Cmp(want.WorldCount()) != 0 {
					t.Fatalf("%s: seed %d step %d: %s worlds with keys, %s without", v.name, seed, step, got.WorldCount(), want.WorldCount())
				}
				if stB.MustPairs != stA.MustPairs || stB.UndecidedPairs != stA.UndecidedPairs {
					t.Fatalf("%s: seed %d step %d: pair counters differ\nwith keys: %+v\nwithout:   %+v", v.name, seed, step, stB, stA)
				}
				if d := stA.OracleCalls - stB.OracleCalls; d < 0 || d != stA.CannotPairs-stB.CannotPairs {
					t.Fatalf("%s: seed %d step %d: blocking should skip cannot-match pairs only\nwith keys: %+v\nwithout:   %+v", v.name, seed, step, stB, stA)
				}
				if v.name == "strict" && *stB != *stA {
					t.Fatalf("strict: seed %d step %d: stats differ\nwith keys: %+v\nwithout:   %+v", seed, step, stB, stA)
				}
				integrations++
				skipped += stA.OracleCalls - stB.OracleCalls
				doc = got
			}
		}
		if integrations < 500 || (v.name == "strict") != (skipped == 0) || v.name != "strict" && skipped < integrations {
			t.Fatalf("%s: property too thin: %d integrations, %d pairs skipped", v.name, integrations, skipped)
		}
	}
}
