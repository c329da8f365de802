package integrate_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/feedback"
	"repro/internal/integrate"
	"repro/internal/oracle"
	"repro/internal/pxml"
	"repro/internal/pxmltest"
	"repro/internal/query"
)

// wideMovies returns n movies with distinct made-up titles and years spread
// over 56 years, like a large clean catalog.
func wideMovies(rng *rand.Rand, n int) []datagen.Movie {
	syllables := []string{"ka", "lo", "mi", "ne", "ru", "sa", "to", "vi", "ze", "dor", "gal", "han", "jun", "pex", "quo", "wyn"}
	seen := map[string]bool{}
	var out []datagen.Movie
	for len(out) < n {
		var words []string
		for w := 0; w < 3; w++ {
			var b strings.Builder
			for s := 0; s < 2+rng.Intn(2); s++ {
				b.WriteString(syllables[rng.Intn(len(syllables))])
			}
			words = append(words, b.String())
		}
		title := strings.Join(words, " ")
		if seen[title] {
			continue
		}
		seen[title] = true
		out = append(out, datagen.Movie{ID: fmt.Sprint(len(out)), Title: title, Year: 1950 + rng.Intn(56),
			Genres: []string{"Drama"}, Directors: []string{"Ava Lindqvist"}})
	}
	return out
}

// rootElementSet adds the certain children of t's root element to seen.
func rootElementSet(t *pxml.Tree, seen map[*pxml.Node]bool) {
	for _, prob := range t.RootElements()[0].Children() {
		if prob.NumChildren() == 1 {
			for _, e := range prob.Child(0).Children() {
				seen[e] = true
			}
		}
	}
}

// TestRootWorkDoesNotScale integrates a 30-movie clean source — ten movies
// of the catalog in the other convention and twenty new ones — into a
// catalog of 400 and one of 2 700 movies that each took one such source
// before, and counts the work at the catalog's children: the join
// enumerates exactly the pairs put to the Oracle (not 30 × width); no
// element's keys or inputs are derived twice over the fold; and the child
// summaries merged into the catalog's summary are those of the children
// that changed, not of all.
func TestRootWorkDoesNotScale(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	movies := wideMovies(rng, 2700+60)
	fresh := movies[2700:]
	source := func(k int) *pxml.Tree {
		ms := append(slices.Clone(movies[k*10:k*10+10]), fresh[k*30:k*30+20]...)
		return datagen.CatalogTree(ms, datagen.ConvIMDB)
	}
	cfg := integrate.Config{Oracle: nil, Schema: datagen.MovieDTD()}
	works, stop := integrate.CountRootWork()
	defer stop()
	summaries := map[int]int{}
	for _, width := range []int{400, 2700} {
		cfg.Oracle = oracle.New([]oracle.Rule{oracle.GenreRule(), oracle.TitleRule(), oracle.YearRule()})
		doc := datagen.CatalogTree(movies[:width], datagen.ConvMPEG7)
		doc.Summary()
		seen := map[*pxml.Node]bool{}
		start := len(works())
		for k := 0; k < 2; k++ {
			src := source(k)
			rootElementSet(doc, seen)
			rootElementSet(src, seen)
			next, _, err := integrate.Integrate(doc, src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			next.Summary()
			doc = next
		}
		var keys, inputs int
		for _, w := range works()[start:] {
			if w.Pairs != w.Calls {
				t.Errorf("width %d: the join enumerated %d pairs, %d were put to the Oracle", width, w.Pairs, w.Calls)
			}
			keys += w.Keys
			inputs += w.Inputs
		}
		if keys != len(seen) || inputs > len(seen) {
			t.Errorf("width %d: %d elements met, keys derived %d times, inputs %d times", width, len(seen), keys, inputs)
		}
		last := works()[len(works())-1]
		if last.FullSummary {
			t.Errorf("width %d: the catalog's summary was merged in full", width)
		}
		if last.Pairs >= 30*width/10 {
			t.Errorf("width %d: %d pairs enumerated", width, last.Pairs)
		}
		summaries[width] = last.Summaries
		t.Logf("width %d: %+v", width, last)
	}
	if summaries[400] == 0 || summaries[400] > 60 || summaries[2700] == 0 || summaries[2700] > 60 {
		t.Fatalf("child summaries merged into the catalog's: %v", summaries)
	}
}

// TestDerivedSummaryEqualsFull: over seeded messy and random folds with
// rejections in between, the merged catalog's summary — derived from its
// predecessor's — equals, field by field, the one a fresh copy of the
// document computes over all its children, and so do its children's and
// its digest.
func TestDerivedSummaryEqualsFull(t *testing.T) {
	works, stop := integrate.CountRootWork()
	defer stop()
	titles := query.MustCompile("//movie/title")
	var derived, full, rejections int
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := integrate.Config{Oracle: oracle.MovieOracle(oracle.SetGenreTitleYear), Schema: datagen.MovieDTD()}
		srcs := messySources(seed, 8)
		if seed%2 == 1 {
			srcs = catalogSources(seed, 8)
		}
		doc := srcs[0]
		doc.Summary()
		for _, src := range srcs[1:] {
			before := len(works())
			next, _, err := integrate.Integrate(doc, src, cfg)
			if err != nil {
				continue
			}
			if w := works()[before:]; len(w) == 1 && w[0].Summaries > 0 {
				if w[0].FullSummary {
					full++
				} else {
					derived++
				}
			}
			fresh, err := pxml.DecodeArena(next.AppendBinary(nil))
			if err != nil {
				t.Fatal(err)
			}
			got, want := next.RootElements()[0], fresh.RootElements()[0]
			if d := pxmltest.SummaryDiff(got.Summary(), want.Summary()); d != "" {
				t.Fatalf("seed %d: derived and full summaries differ: %s", seed, d)
			}
			for i, k := range got.Children() {
				if d := pxmltest.SummaryDiff(k.Summary(), want.Child(i).Summary()); d != "" {
					t.Fatalf("seed %d: child %d: %s", seed, i, d)
				}
			}
			if pxml.Hash(got) != pxml.Hash(want) {
				t.Fatalf("seed %d: digests differ", seed)
			}
			next.Summary()
			if rng.Intn(2) == 0 {
				if answers, err := query.EvalExact(next, titles, 0); err == nil && len(answers) > 0 {
					a := answers[rng.Intn(len(answers))]
					s := feedback.NewSession(next, feedback.Options{})
					if _, err := s.Apply(titles, a.Value, feedback.Incorrect); err == nil {
						next = s.Tree()
						next.Summary()
						rejections++
					}
				}
			}
			doc = next
		}
	}
	t.Logf("%d summaries derived, %d merged in full, %d rejections", derived, full, rejections)
	if derived < 100 || rejections < 20 {
		t.Fatalf("property too thin: %d summaries derived, %d merged in full, %d rejections", derived, full, rejections)
	}
}
