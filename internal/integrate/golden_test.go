package integrate_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dtd"
	"repro/internal/integrate"
	"repro/internal/oracle"
	"repro/internal/pxml"
)

// goldenCase is one integration workload: its sources are folded left to
// right under one Config, a source that fails to integrate is skipped and
// its error kept.
type goldenCase struct {
	label string
	srcs  []*pxml.Tree
	cfg   integrate.Config
}

// goldenStep is the outcome of one integration in a fold: its Stats, or
// the error it failed with.
type goldenStep struct {
	stats integrate.Stats
	err   string
}

// goldenCases covers every path the engine has: random catalogs whose
// years are present, absent, duplicated or uncertain; messy datagen source
// sequences; the paper's synthetic movie pairs under each rule set, raw and
// normalized; a budget truncation; and random address books, where
// must-conflicts, schema pruning and value conflicts all fire.
func goldenCases() []goldenCase {
	movies := func(set oracle.RuleSet) integrate.Config {
		return integrate.Config{Oracle: oracle.MovieOracle(set), Schema: datagen.MovieDTD()}
	}
	var cases []goldenCase
	for seed := int64(0); seed < 12; seed++ {
		cases = append(cases, goldenCase{fmt.Sprintf("random catalogs %d", seed), catalogSources(seed, 4), movies(oracle.SetGenreTitleYear)})
	}
	for _, seed := range []int64{1, 2, 3, 7} {
		cases = append(cases, goldenCase{fmt.Sprintf("messy sources %d", seed), messySources(seed, 8), movies(oracle.SetGenreTitleYear)})
	}
	for _, p := range []struct {
		name string
		pair datagen.Pair
	}{
		{"table1", datagen.TableISources()},
		{"confusing12", datagen.Confusing(12, 7)},
		{"typical", datagen.Typical(6, 24, 3, 11)},
	} {
		for _, set := range []oracle.RuleSet{oracle.SetTitle, oracle.SetGenreTitle, oracle.SetGenreTitleYear} {
			for _, raw := range []bool{false, true} {
				cfg := movies(set)
				cfg.SkipNormalize = raw
				cases = append(cases, goldenCase{fmt.Sprintf("%s/%s/raw=%v", p.name, set, raw),
					[]*pxml.Tree{p.pair.A.Tree, p.pair.B.Tree}, cfg})
			}
		}
	}
	truncate := movies(oracle.SetTitle)
	truncate.MaxMatchingsPerComponent, truncate.TruncateOnExplosion = 10, true
	pair := datagen.Confusing(18, 5)
	cases = append(cases, goldenCase{"truncate", []*pxml.Tree{pair.A.Tree, pair.B.Tree}, truncate})

	book := dtd.MustParse(`
		<!ELEMENT addressbook (person*)>
		<!ELEMENT person (nm, tel?)>
		<!ELEMENT nm (#PCDATA)>
		<!ELEMENT tel (#PCDATA)>
	`)
	rng := rand.New(rand.NewSource(2026))
	for i := 0; i < 40; i++ {
		cases = append(cases, goldenCase{fmt.Sprintf("random books %d", i),
			[]*pxml.Tree{randomBook(rng), randomBook(rng)},
			integrate.Config{Oracle: oracle.New(nil), Schema: book, WeightA: 0.7}})
	}
	return cases
}

// run folds the case's sources and returns the document and every step's
// outcome.
func (c goldenCase) run() (*pxml.Tree, []goldenStep) {
	doc := c.srcs[0]
	var steps []goldenStep
	for _, src := range c.srcs[1:] {
		next, st, err := integrate.Integrate(doc, src, c.cfg)
		if err != nil {
			steps = append(steps, goldenStep{err: err.Error()})
			continue
		}
		doc = next
		steps = append(steps, goldenStep{stats: *st})
	}
	return doc, steps
}

// TestStatsMatchGolden pins the one-goroutine engine to the outcomes the
// pooled engine with its digest-keyed verdict table recorded (Config.Memo
// nil): the same documents (digest, logical nodes, worlds, choice points),
// the same errors, and the same counters. The one difference is by design:
// a verdict the table used to answer is now an Oracle call, so OracleCalls
// is the recorded OracleCalls plus the recorded verdict-table hits, and the
// three pair buckets sum to it.
func TestStatsMatchGolden(t *testing.T) {
	cases := goldenCases()
	if len(cases) != len(goldenFolds) {
		t.Fatalf("%d cases, %d recorded outcomes", len(cases), len(goldenFolds))
	}
	var calls, hits, truncated int
	for i, c := range cases {
		want := goldenFolds[i]
		if c.label != want.label {
			t.Fatalf("case %d is %q, recorded %q", i, c.label, want.label)
		}
		doc, steps := c.run()
		if doc.Digest() != want.digest || doc.NodeCount() != want.nodes ||
			doc.WorldCount().String() != want.worlds || doc.ChoicePoints() != want.choicePoints {
			t.Fatalf("%s: document digest %#x, %d nodes, %s worlds, %d choice points; recorded %#x, %d, %s, %d",
				c.label, doc.Digest(), doc.NodeCount(), doc.WorldCount(), doc.ChoicePoints(),
				want.digest, want.nodes, want.worlds, want.choicePoints)
		}
		if len(steps) != len(want.steps) {
			t.Fatalf("%s: %d steps, recorded %d", c.label, len(steps), len(want.steps))
		}
		for k, step := range steps {
			rec := want.steps[k]
			if step.err != rec.err {
				t.Fatalf("%s step %d: error %q, recorded %q", c.label, k, step.err, rec.err)
			}
			if step.err != "" {
				continue
			}
			st, r := step.stats, rec.stats
			if st.OracleCalls != r[0]+r[12] || st.MustPairs+st.CannotPairs+st.UndecidedPairs != st.OracleCalls {
				t.Fatalf("%s step %d: %d Oracle calls (%d must, %d cannot, %d undecided); recorded %d calls + %d table hits",
					c.label, k, st.OracleCalls, st.MustPairs, st.CannotPairs, st.UndecidedPairs, r[0], r[12])
			}
			rest := [...]int{st.Components, st.LargestComponent, st.MatchingsEnumerated, st.MatchingsPruned,
				st.PossibilitiesBuilt, st.IncompatibleMerges, st.TruncatedComponents, st.ValueConflicts, st.SplicedChildren}
			if recRest := [...]int{r[4], r[5], r[6], r[7], r[8], r[9], r[10], r[11], r[14]}; rest != recRest || r[13] != 0 {
				t.Fatalf("%s step %d: counters %+v, recorded %v", c.label, k, st, r)
			}
			calls += st.OracleCalls
			hits += r[12]
			truncated += r[10]
		}
	}
	if hits == 0 || calls < 1000 || truncated == 0 {
		t.Fatalf("golden set too thin: %d Oracle calls, %d of them once table hits, %d truncated components",
			calls, hits, truncated)
	}
}
