package oracle_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/oracle"
	"repro/internal/pxml"
	"repro/internal/strsim"
	"repro/internal/xmlcodec"
)

func elem(t *testing.T, src string) *pxml.Node {
	t.Helper()
	tr, err := xmlcodec.DecodeString(src)
	if err != nil {
		t.Fatalf("decode %q: %v", src, err)
	}
	return tr.RootElements()[0]
}

func TestDeepEqualRuleIsAlwaysPresent(t *testing.T) {
	o := oracle.New(nil)
	a := elem(t, `<movie><title>Jaws</title><year>1975</year></movie>`)
	b := elem(t, `<movie><title>Jaws</title><year>1975</year></movie>`)
	v, err := o.Decide(a, b)
	if err != nil {
		t.Fatalf("Decide: %v", err)
	}
	if v.Decision != oracle.MustMatch || v.P != 1 {
		t.Fatalf("deep-equal pair verdict = %+v", v)
	}
	if v.Rule != "deep-equal" {
		t.Fatalf("rule = %q", v.Rule)
	}
}

func TestUnknownUsesPrior(t *testing.T) {
	o := oracle.New(nil, oracle.WithPrior(0.3))
	a := elem(t, `<movie><title>Jaws</title></movie>`)
	b := elem(t, `<movie><title>Jaws 2</title></movie>`)
	v, err := o.Decide(a, b)
	if err != nil {
		t.Fatalf("Decide: %v", err)
	}
	if v.Decision != oracle.Unknown || v.P != 0.3 {
		t.Fatalf("verdict = %+v, want unknown at prior 0.3", v)
	}
	if o.Calls() != 1 || o.Undecided() != 1 {
		t.Fatalf("stats calls=%d undecided=%d", o.Calls(), o.Undecided())
	}
	o.ResetStats()
	if o.Calls() != 0 || o.Undecided() != 0 {
		t.Fatalf("stats not reset")
	}
}

func TestWithPriorPanicsOutOfRange(t *testing.T) {
	for _, p := range []float64{0, 1, -0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("WithPrior(%v) should panic", p)
				}
			}()
			oracle.WithPrior(p)
		}()
	}
}

func TestEstimatorClamped(t *testing.T) {
	o := oracle.New(nil, oracle.WithEstimator("movie", func(a, b *pxml.Node) float64 { return 2.0 }))
	a := elem(t, `<movie><title>A</title></movie>`)
	b := elem(t, `<movie><title>B</title></movie>`)
	v, err := o.Decide(a, b)
	if err != nil {
		t.Fatalf("Decide: %v", err)
	}
	if v.P != 1-oracle.ProbFloor {
		t.Fatalf("estimate not clamped: %v", v.P)
	}
	o2 := oracle.New(nil, oracle.WithEstimator("movie", func(a, b *pxml.Node) float64 { return -3 }))
	v, _ = o2.Decide(a, b)
	if v.P != oracle.ProbFloor {
		t.Fatalf("low estimate not clamped: %v", v.P)
	}
}

func TestGenreRule(t *testing.T) {
	o := oracle.New([]oracle.Rule{oracle.GenreRule()})
	horror1 := elem(t, `<genre>Horror</genre>`)
	horror2 := elem(t, `<genre>Horror</genre>`)
	thriller := elem(t, `<genre>Thriller</genre>`)
	if v, _ := o.Decide(horror1, horror2); v.Decision != oracle.MustMatch {
		t.Fatalf("equal genres: %+v", v)
	}
	if v, _ := o.Decide(horror1, thriller); v.Decision != oracle.CannotMatch {
		t.Fatalf("different genres: %+v", v)
	}
	// Non-genre elements are not decided by the genre rule.
	if v, _ := o.Decide(elem(t, `<title>A</title>`), elem(t, `<title>B</title>`)); v.Decision != oracle.Unknown {
		t.Fatalf("genre rule leaked to titles: %+v", v)
	}
}

func TestTitleRule(t *testing.T) {
	o := oracle.New([]oracle.Rule{oracle.TitleRule()})
	jaws := elem(t, `<movie><title>Jaws</title></movie>`)
	jaws2 := elem(t, `<movie><title>Jaws 2</title></movie>`)
	dieHard := elem(t, `<movie><title>Die Hard</title></movie>`)
	if v, _ := o.Decide(jaws, dieHard); v.Decision != oracle.CannotMatch {
		t.Fatalf("dissimilar titles: %+v", v)
	}
	if v, _ := o.Decide(jaws, jaws2); v.Decision != oracle.Unknown {
		t.Fatalf("sequel titles should stay undecided: %+v", v)
	}
	// Missing title abstains.
	noTitle := elem(t, `<movie><year>1975</year></movie>`)
	if v, _ := o.Decide(jaws, noTitle); v.Decision != oracle.Unknown {
		t.Fatalf("missing title should abstain: %+v", v)
	}
}

// TestSimilarityPredicateIsTheTitleRule: TitleRule decides through
// strsim.TitleBelow, the public constructor through the similarity itself;
// it is one rule — same name, same verdict on every pair of titles, the same
// abstentions on a missing or uncertain title and on other elements.
func TestSimilarityPredicateIsTheTitleRule(t *testing.T) {
	predicate := oracle.TitleRule()
	similarity := oracle.Similarity("movie", "title", strsim.TitleSim, oracle.TitleThreshold)
	if predicate.Name() != similarity.Name() {
		t.Fatalf("rule names differ: %q, %q", predicate.Name(), similarity.Name())
	}
	elems := []*pxml.Node{
		elem(t, `<movie><year>1975</year></movie>`),
		elem(t, `<show><title>Jaws</title></show>`),
		pxml.NewElem("movie", "", pxml.NewProb(
			pxml.NewPoss(0.5, pxml.NewLeaf("title", "Jaws")), pxml.NewPoss(0.5, pxml.NewLeaf("title", "Heat")))),
	}
	for _, title := range []string{"Jaws", "JAWS!", "Jawz", "Jaws 2", "Die Hard", "Die Hard 2", "Hard, Die", "Mission: Impossible",
		"Impossible Mission", "Mission Impossible II", "The Thing", "Thing", "L'été indien", "L'ete indien", "---", "Heat"} {
		elems = append(elems, pxml.NewElem("movie", "", pxml.Certain(pxml.NewLeaf("title", title))))
	}
	cannot := 0
	for _, a := range elems {
		for _, b := range elems {
			got, want := predicate.Apply(a, b), similarity.Apply(a, b)
			if got != want {
				t.Fatalf("pair\n%s\n%s\npredicate rule says %+v, similarity rule %+v", pxml.Sketch(a), pxml.Sketch(b), got, want)
			}
			if got.Decision == oracle.CannotMatch {
				cannot++
			}
		}
	}
	if cannot < len(elems) || cannot > len(elems)*len(elems)-len(elems) {
		t.Fatalf("fixture too thin: %d of %d pairs cannot-match", cannot, len(elems)*len(elems))
	}
}

func TestYearRule(t *testing.T) {
	o := oracle.New([]oracle.Rule{oracle.YearRule()})
	m75 := elem(t, `<movie><title>Jaws</title><year>1975</year></movie>`)
	m78 := elem(t, `<movie><title>Jaws</title><year>1978</year></movie>`)
	m75b := elem(t, `<movie><title>Jaws reloaded</title><year>1975</year></movie>`)
	if v, _ := o.Decide(m75, m78); v.Decision != oracle.CannotMatch {
		t.Fatalf("different years: %+v", v)
	}
	if v, _ := o.Decide(m75, m75b); v.Decision != oracle.Unknown {
		t.Fatalf("same year must not imply same movie: %+v", v)
	}
}

func TestDirectorRule(t *testing.T) {
	o := oracle.New([]oracle.Rule{oracle.DirectorRule()})
	a := elem(t, `<director>Woo, John</director>`)
	b := elem(t, `<director>John Woo</director>`)
	c := elem(t, `<director>Steven Spielberg</director>`)
	typo := elem(t, `<director>John Woa</director>`)
	if v, _ := o.Decide(a, b); v.Decision != oracle.MustMatch {
		t.Fatalf("convention-equivalent directors: %+v", v)
	}
	if v, _ := o.Decide(a, c); v.Decision != oracle.CannotMatch {
		t.Fatalf("different directors: %+v", v)
	}
	if v, _ := o.Decide(b, typo); v.Decision != oracle.Unknown {
		t.Fatalf("near-typo directors should stay undecided: %+v", v)
	}
}

func TestConflictDefaultResolvesToCannot(t *testing.T) {
	always := oracle.NewRule("always-must", func(a, b *pxml.Node) oracle.Verdict {
		return oracle.Verdict{Decision: oracle.MustMatch, P: 1, Rule: "always-must"}
	})
	never := oracle.NewRule("always-cannot", func(a, b *pxml.Node) oracle.Verdict {
		return oracle.Verdict{Decision: oracle.CannotMatch, Rule: "always-cannot"}
	})
	o := oracle.New([]oracle.Rule{always, never})
	v, err := o.Decide(elem(t, `<x>1</x>`), elem(t, `<x>2</x>`))
	if err != nil {
		t.Fatalf("non-strict conflict should not error: %v", err)
	}
	if v.Decision != oracle.CannotMatch {
		t.Fatalf("conflict resolution = %+v, want cannot-match", v)
	}
	if !strings.Contains(v.Rule, "overrides") {
		t.Fatalf("conflict rule label = %q", v.Rule)
	}
}

func TestConflictStrictErrors(t *testing.T) {
	always := oracle.NewRule("always-must", func(a, b *pxml.Node) oracle.Verdict {
		return oracle.Verdict{Decision: oracle.MustMatch, P: 1}
	})
	never := oracle.NewRule("always-cannot", func(a, b *pxml.Node) oracle.Verdict {
		return oracle.Verdict{Decision: oracle.CannotMatch}
	})
	o := oracle.New([]oracle.Rule{always, never}, oracle.Strict())
	_, err := o.Decide(elem(t, `<x>1</x>`), elem(t, `<x>2</x>`))
	if err == nil {
		t.Fatalf("strict conflict should error")
	}
	ce, ok := err.(*oracle.ConflictError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if ce.MustRule != "always-must" || ce.CannotRule != "always-cannot" {
		t.Fatalf("conflict = %+v", ce)
	}
}

func TestExactLeafIgnoresNonLeaves(t *testing.T) {
	o := oracle.New([]oracle.Rule{oracle.ExactLeaf("genre")})
	a := elem(t, `<genre><sub>Horror</sub></genre>`)
	b := elem(t, `<genre><sub>Thriller</sub></genre>`)
	if v, _ := o.Decide(a, b); v.Decision != oracle.Unknown {
		t.Fatalf("non-leaf genres should abstain: %+v", v)
	}
}

func TestRuleSetContents(t *testing.T) {
	cases := []struct {
		set  oracle.RuleSet
		n    int
		name string
	}{
		{oracle.SetNone, 0, "none"},
		{oracle.SetGenre, 1, "Genre rule"},
		{oracle.SetTitle, 1, "Movie title rule"},
		{oracle.SetGenreTitle, 2, "Genre and movie title rule"},
		{oracle.SetGenreTitleYear, 3, "Genre, movie title and year rule"},
		{oracle.SetFull, 4, "All rules (incl. director)"},
	}
	for _, tc := range cases {
		if got := len(tc.set.Rules()); got != tc.n {
			t.Errorf("%v has %d rules, want %d", tc.set, got, tc.n)
		}
		if tc.set.String() != tc.name {
			t.Errorf("String() = %q, want %q", tc.set.String(), tc.name)
		}
	}
	// MovieOracle includes deep-equal plus the set's rules.
	o := oracle.MovieOracle(oracle.SetGenreTitleYear)
	if got := len(o.Rules()); got != 4 {
		t.Fatalf("MovieOracle rules = %v", o.Rules())
	}
	if o.Rules()[0] != "deep-equal" {
		t.Fatalf("first rule = %q", o.Rules()[0])
	}
}

func TestMovieOracleEstimatorRanksBySimilarity(t *testing.T) {
	o := oracle.MovieOracle(oracle.SetTitle)
	mi := elem(t, `<movie><title>Mission: Impossible</title></movie>`)
	mi2 := elem(t, `<movie><title>Mission: Impossible II</title></movie>`)
	miOrder := elem(t, `<movie><title>Impossible Mission</title></movie>`)
	vSeq, _ := o.Decide(mi, mi2)
	vOrd, _ := o.Decide(mi, miOrder)
	if vSeq.Decision != oracle.Unknown || vOrd.Decision != oracle.Unknown {
		t.Fatalf("expected unknown verdicts, got %+v %+v", vSeq, vOrd)
	}
	if !(vOrd.P > vSeq.P) {
		t.Fatalf("word-order variant (%v) should score higher than sequel (%v)", vOrd.P, vSeq.P)
	}
}

func TestDecisionString(t *testing.T) {
	if oracle.Unknown.String() != "unknown" || oracle.MustMatch.String() != "must-match" ||
		oracle.CannotMatch.String() != "cannot-match" {
		t.Fatalf("decision strings wrong")
	}
	if !strings.Contains(oracle.Decision(9).String(), "9") {
		t.Fatalf("unknown decision string")
	}
}

// TestBlockKeyContract: wherever two keys of a rule are both present and
// differ, that rule's Apply says cannot-match; an element without a single
// certain key value (field absent, duplicated, under a choice point, or an
// element of another tag) has no key. Only KeyField has keys.
func TestBlockKeyContract(t *testing.T) {
	elems := []*pxml.Node{
		elem(t, `<movie><title>Jaws</title><year>1975</year></movie>`),
		elem(t, `<movie><title>Jaws</title><year>1978</year></movie>`),
		elem(t, `<movie><title>Jaws</title></movie>`),
		elem(t, `<movie><title>Jaws</title><year>1975</year><year>1978</year></movie>`),
		pxml.NewElem("movie", "", pxml.NewProb(
			pxml.NewPoss(0.5, pxml.NewLeaf("year", "1975")),
			pxml.NewPoss(0.5, pxml.NewLeaf("year", "1978")))),
		elem(t, `<person><year>1975</year></person>`),
	}
	wantKeys := []string{"1975", "1978", "", "", "", ""}
	year := oracle.YearRule()
	for i, e := range elems {
		if got := year.BlockKey(e); got != wantKeys[i] {
			t.Errorf("element %d: year key %q, want %q", i, got, wantKeys[i])
		}
		for _, r := range []oracle.Rule{oracle.DeepEqual(), oracle.GenreRule(), oracle.TitleRule(), oracle.DirectorRule(),
			oracle.NewRule("custom", func(a, b *pxml.Node) oracle.Verdict { return oracle.Verdict{} })} {
			if k := r.BlockKey(e); k != "" {
				t.Errorf("element %d: rule %s has key %q, want none", i, r.Name(), k)
			}
		}
	}
	for i, a := range elems {
		for j, b := range elems {
			ka, kb := year.BlockKey(a), year.BlockKey(b)
			if ka != "" && kb != "" && ka != kb && year.Apply(a, b).Decision != oracle.CannotMatch {
				t.Errorf("pair %d/%d: keys %q and %q differ but the rule says %v", i, j, ka, kb, year.Apply(a, b).Decision)
			}
		}
	}
}

// TestBlockSkipsOnlyCannotMatchPairs: every pair a Pairing reports blocked
// is one Decide answers cannot-match, key-less elements are blocked against
// no one, and a strict oracle blocks nothing at all.
func TestBlockSkipsOnlyCannotMatchPairs(t *testing.T) {
	as := []*pxml.Node{
		elem(t, `<movie><title>Jaws</title><year>1975</year></movie>`),
		elem(t, `<movie><title>Alien</title></movie>`),
		elem(t, `<genre>Horror</genre>`),
	}
	bs := []*pxml.Node{
		elem(t, `<movie><title>Jaws</title><year>1975</year></movie>`),
		elem(t, `<movie><title>Jaws</title><year>1978</year></movie>`),
		elem(t, `<movie><title>Jaws</title></movie>`),
	}
	o := oracle.MovieOracle(oracle.SetGenreTitleYear)
	p := o.Pair(as, bs)
	blocked := 0
	for i, a := range as {
		for j, b := range bs {
			if !p.Blocked(i, j) {
				continue
			}
			blocked++
			if v, err := o.Decide(a, b); err != nil || v.Decision != oracle.CannotMatch {
				t.Errorf("pair %d/%d is blocked but decided %+v (err %v)", i, j, v, err)
			}
		}
	}
	if blocked != 1 || !p.Blocked(0, 1) {
		t.Fatalf("%d pairs blocked, want only the 1975/1978 pair", blocked)
	}
	if n := blockedPairs(oracle.MovieOracle(oracle.SetGenreTitleYear, oracle.Strict()).Pair(as, bs), len(as), len(bs)); n != 0 {
		t.Fatalf("a strict oracle must put every pair to every rule, yet it blocks %d", n)
	}
	if n := blockedPairs(o.Pair(as[1:], bs), len(as)-1, len(bs)); n != 0 {
		t.Fatalf("no element of the first list has a key, yet %d pairs are blocked", n)
	}
}

func blockedPairs(p *oracle.Pairing, na, nb int) int {
	n := 0
	for i := 0; i < na; i++ {
		for j := 0; j < nb; j++ {
			if p.Blocked(i, j) {
				n++
			}
		}
	}
	return n
}

// TestDeepEqualRuleIgnoresTrivialGrouping: the digest shortcut must not
// turn the rule into structural equality.
func TestDeepEqualRuleIgnoresTrivialGrouping(t *testing.T) {
	split := pxml.NewElem("person", "", pxml.Certain(pxml.NewLeaf("nm", "John")), pxml.Certain(pxml.NewLeaf("tel", "1111")))
	joint := pxml.NewElem("person", "", pxml.Certain(pxml.NewLeaf("nm", "John"), pxml.NewLeaf("tel", "1111")))
	if pxml.Hash(split) == pxml.Hash(joint) {
		t.Fatal("fixture: the two groupings should have different digests")
	}
	if v := oracle.DeepEqual().Apply(split, joint); v.Decision != oracle.MustMatch {
		t.Fatalf("differently grouped equal persons: %+v", v)
	}
}

// TestParseRules pins the rule-spec grammar the CLI and the shell share:
// comma-separated names, "" and "none" for no rule, blanks skipped, and an
// error that lists the known names.
func TestParseRules(t *testing.T) {
	cases := []struct {
		spec    string
		want    []string
		wantErr bool
	}{
		{spec: "", want: nil},
		{spec: "none", want: nil},
		{spec: "genre", want: []string{oracle.GenreRule().Name()}},
		{spec: "genre,title,year", want: []string{oracle.GenreRule().Name(), oracle.TitleRule().Name(), oracle.YearRule().Name()}},
		{spec: " director , ,title", want: []string{oracle.DirectorRule().Name(), oracle.TitleRule().Name()}},
		{spec: "bogus", wantErr: true},
		{spec: "genre,none", wantErr: true},
	}
	for _, tc := range cases {
		rules, err := oracle.ParseRules(tc.spec)
		if tc.wantErr {
			if err == nil || !strings.Contains(err.Error(), "known: genre, title, year, director") {
				t.Errorf("ParseRules(%q) error = %v, want one listing the known rules", tc.spec, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseRules(%q): %v", tc.spec, err)
			continue
		}
		var got []string
		for _, r := range rules {
			got = append(got, r.Name())
		}
		if strings.Join(got, ",") != strings.Join(tc.want, ",") || len(got) != len(tc.want) {
			t.Errorf("ParseRules(%q) = %v, want %v", tc.spec, got, tc.want)
		}
	}
}

// TestPairingsAcrossGoroutines: the Oracle and the pool of Pairing storage
// are shared by integrations running at once; each goroutine's Pairings
// decide as Decide does while the others take and release theirs.
func TestPairingsAcrossGoroutines(t *testing.T) {
	o := oracle.MovieOracle(oracle.SetFull)
	movies := func(n, shift int) []*pxml.Node {
		out := make([]*pxml.Node, n)
		for i := range out {
			out[i] = pxml.NewElem("movie", "", pxml.Certain(
				pxml.NewLeaf("title", fmt.Sprintf("Movie %d", (i+shift)%7)),
				pxml.NewLeaf("year", fmt.Sprint(1970+(i+shift)%3))))
		}
		return out
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			as, bs := movies(10+g, g), movies(5+g, 2*g)
			for round := 0; round < 50; round++ {
				p := o.Pair(as, bs)
				for i, a := range as {
					for j, b := range bs {
						got, err1 := p.Decide(i, j)
						want, err2 := o.Decide(a, b)
						if got != want || err1 != nil || err2 != nil {
							t.Errorf("goroutine %d pair %d/%d: Pairing %+v (%v), Decide %+v (%v)", g, i, j, got, err1, want, err2)
							return
						}
					}
				}
				p.Release()
			}
		}()
	}
	wg.Wait()
}
