package integrate_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/integrate"
	"repro/internal/oracle"
	"repro/internal/pxml"
	"repro/internal/pxmltest"
	"repro/internal/strsim"
)

// childElements lists every element under the root element's choice
// points, certain or not: a Pairing may be handed any of them.
func childElements(t *pxml.Tree) []*pxml.Node {
	var out []*pxml.Node
	for _, root := range t.RootElements() {
		for _, prob := range root.Children() {
			for _, poss := range prob.Children() {
				out = append(out, poss.Children()...)
			}
		}
	}
	return out
}

// oddElements are the shapes the rules read differently: titles and years
// missing, duplicated, uncertain, empty, all or led by punctuation, titles
// past 64 runes in and out of ASCII, and elements that are not movies.
func oddElements() []*pxml.Node {
	movie := func(kids ...*pxml.Node) *pxml.Node { return pxml.NewElem("movie", "", pxml.Certain(kids...)) }
	leaf := pxml.NewLeaf
	either := func(a, b *pxml.Node) *pxml.Node {
		return pxml.NewElem("movie", "", pxml.NewProb(pxml.NewPoss(0.5, a), pxml.NewPoss(0.5, b)), pxml.Certain(leaf("genre", "Drama")))
	}
	long := strings.Repeat("Été indien à Montréal ", 4)
	longASCII := strings.Repeat("Mission Impossible Dead Reckoning ", 3)
	return []*pxml.Node{
		movie(leaf("title", "Jaws"), leaf("year", "1975")),
		movie(leaf("title", "Jaws"), leaf("year", "1978")),
		movie(leaf("title", "JAWS!"), leaf("genre", "Horror")),
		movie(leaf("year", "1975")),
		movie(leaf("title", "Jaws"), leaf("title", "Jaws 2"), leaf("year", "1975")),
		movie(leaf("title", "Jaws"), leaf("year", "1975"), leaf("year", "1976")),
		either(leaf("title", "Jaws"), leaf("title", "Jawz")),
		either(leaf("year", "1975"), leaf("year", "1976")),
		movie(leaf("title", ""), leaf("year", "1975")),
		movie(leaf("title", "!!!"), leaf("year", "1975")),
		movie(leaf("title", "(Jaws)"), leaf("year", "1975")),
		movie(leaf("title", "'Round Midnight")),
		movie(leaf("title", "M")),
		movie(leaf("title", "'M'")),
		movie(leaf("title", long), leaf("year", "1975")),
		movie(leaf("title", strings.ToUpper(long)+"II")),
		movie(leaf("title", longASCII)),
		movie(leaf("title", longASCII+"2"), leaf("director", "Woo, John")),
		leaf("genre", "Horror"),
		leaf("genre", "horror"),
		leaf("director", "John Woo"),
		leaf("title", "Jaws"),
		pxml.NewElem("person", "", pxml.Certain(leaf("title", "Jaws"), leaf("year", "1975"))),
	}
}

// pairingOracles are the oracles the property runs: the movie oracle, and
// one mixing a NewRule rule, a rule wrapped in a
// struct embedding oracle.Rule (keyless) and the generic Similarity with
// every built-in rule.
func pairingOracles() map[string]*oracle.Oracle {
	sameTitle := oracle.NewRule("same-title", func(a, b *pxml.Node) oracle.Verdict {
		if ta := pxml.CertainText(a, "title"); ta != "" && ta == pxml.CertainText(b, "title") {
			return oracle.Verdict{Decision: oracle.MustMatch, P: 1}
		}
		return oracle.Verdict{}
	})
	mixed := []oracle.Rule{sameTitle, keyless{oracle.TitleRule()}, oracle.YearRule(), oracle.GenreRule(), oracle.DirectorRule(),
		oracle.Similarity("movie", "title", strsim.TitleSim, 0.8), oracle.ExactLeaf("title")}
	return map[string]*oracle.Oracle{
		"movie": oracle.MovieOracle(oracle.SetFull),
		"mixed": oracle.New(mixed, oracle.WithEstimator("movie", oracle.TitleEstimator())),
	}
}

// TestPairingDecideEqualsDecide: a Pairing's verdict on every pair (i, j)
// is Oracle.Decide's on the two elements — decision, probability and rule
// — whether its rules compare prepared inputs or are asked through
// Apply, over the child lists of messy and random sources folded into a
// document, and of elements of every odd shape.
func TestPairingDecideEqualsDecide(t *testing.T) {
	var lists [][]*pxml.Node
	for _, srcs := range [][]*pxml.Tree{messySources(5, 6), catalogSources(9, 6)} {
		doc, _ := fold(t, srcs, integrate.Config{Oracle: oracle.MovieOracle(oracle.SetGenreTitleYear), Schema: datagen.MovieDTD()})
		lists = append(lists, childElements(doc))
		for _, src := range srcs {
			lists = append(lists, childElements(src))
		}
	}
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 20; k++ {
		lists = append(lists, childElements(pxmltest.RandomCatalog(rng, 1+rng.Intn(6))))
	}
	odd := oddElements()
	lists = append(lists, odd, odd[:len(odd)/2], odd[len(odd)/2:])
	seen := map[string]int{} // verdicts by decision
	for name, o := range pairingOracles() {
		for x, as := range lists {
			for _, bs := range [][]*pxml.Node{lists[(x+1)%len(lists)], as, odd} {
				p := o.Pair(as, bs)
				for i, a := range as {
					for j, b := range bs {
						got := p.Decide(i, j)
						want, err := o.Decide(a, b)
						if got != want || err != nil {
							t.Fatalf("%s: pair %d/%d (%s / %s): Pairing %+v; Decide %+v, %v",
								name, i, j, pxml.MustTree(pxml.Certain(a)), pxml.MustTree(pxml.Certain(b)), got, want, err)
						}
						seen[got.Decision.String()]++
					}
				}
				p.Release()
			}
		}
	}
	for _, k := range []string{"must-match", "cannot-match", "unknown"} {
		if seen[k] < 100 {
			t.Fatalf("property too thin: %v", seen)
		}
	}
}
