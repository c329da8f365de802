package oracle_test

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/feedback"
	"repro/internal/integrate"
	"repro/internal/oracle"
	"repro/internal/pxml"
	"repro/internal/query"
)

// keyCounter is a year rule defined outside the package, as a user's rule
// would be: it counts, per element, how often its key is asked for.
type keyCounter struct {
	oracle.Rule
	mu    sync.Mutex
	asked map[*pxml.Node]int
}

func (r *keyCounter) BlockKey(e *pxml.Node) string {
	r.mu.Lock()
	r.asked[e]++
	r.mu.Unlock()
	return r.Rule.BlockKey(e)
}

// foldSources renders n sources of 30 movies each, drawn from a pool of 120
// with made-up distinct titles, so that later sources meet movies of earlier
// ones; every fourth record lacks its year and the naming convention
// alternates.
func foldSources(seed int64, n int) []*pxml.Tree {
	rng := rand.New(rand.NewSource(seed))
	syllables := []string{"ka", "lo", "mi", "ne", "ru", "sa", "to", "vi", "ze", "dor", "gal", "han", "jun", "pex", "quo", "wyn"}
	seen := map[string]bool{}
	var pool []datagen.Movie
	for len(pool) < 120 {
		title := ""
		for w := 0; w < 3; w++ {
			title += " " + syllables[rng.Intn(len(syllables))] + syllables[rng.Intn(len(syllables))] + syllables[rng.Intn(len(syllables))]
		}
		if !seen[title] {
			seen[title] = true
			pool = append(pool, datagen.Movie{Title: title[1:], Year: 1950 + rng.Intn(56), Genres: []string{"Drama"}, Directors: []string{"Ava " + strings.ToUpper(title[1:2]) + title[2:4]}})
		}
	}
	out := make([]*pxml.Tree, n)
	for k := range out {
		ms := make([]datagen.Movie, 0, 30)
		for _, i := range rng.Perm(len(pool))[:30] {
			m := pool[i]
			if rng.Intn(4) == 0 {
				m.Year = 0
			}
			ms = append(ms, m)
		}
		out[k] = pxml.InternTree(datagen.CatalogTree(ms, datagen.Convention(k%2)))
	}
	return out
}

// elements lists every element of t.
func elements(t *pxml.Tree) map[*pxml.Node]bool {
	out := map[*pxml.Node]bool{}
	pxml.Walk(t.Root(), func(n *pxml.Node) bool {
		if n.Kind() == pxml.KindElem {
			out[n] = true
		}
		return true
	})
	return out
}

// TestTableLifetime: a new Oracle's table is empty; after a fold of 24
// sources it holds entries for elements of the current document only; and a
// rejection between two integrations, which rebuilds the movies it
// conditions, has the next integration derive the keys of exactly the
// rebuilt ones among the catalog's certain children — no unchanged element
// is asked for its key again.
func TestTableLifetime(t *testing.T) {
	year := &keyCounter{Rule: oracle.YearRule(), asked: map[*pxml.Node]int{}}
	o := oracle.New([]oracle.Rule{oracle.GenreRule(), oracle.TitleRule(), year})
	if n := len(oracle.TableNodes(o)); n != 0 {
		t.Fatalf("a new Oracle's table holds %d entries", n)
	}
	cfg := integrate.Config{Oracle: o, Schema: datagen.MovieDTD()}
	srcs := foldSources(3, 26)
	doc := srcs[0]
	for _, src := range srcs[1:25] {
		next, _, err := integrate.Integrate(doc, src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		doc = next
	}
	inDoc := elements(doc)
	table := oracle.TableNodes(o)
	if len(table) < 30 {
		t.Fatalf("the table holds %d entries after 24 sources", len(table))
	}
	for _, e := range table {
		if !inDoc[e] {
			t.Fatalf("the table holds an entry for an element absent from the document: %s", pxml.MustTree(pxml.Certain(e)))
		}
	}

	// Reject a director's spelling: the movies it conditions are rebuilt.
	q := query.MustCompile(`//movie/director`)
	answers, err := query.EvalExact(doc, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a rejection after which the next source integrates.
	held := map[*pxml.Node]bool{}
	for _, e := range oracle.TableNodes(o) {
		held[e] = true
	}
	var rejected, next *pxml.Tree
	for _, a := range answers {
		s := feedback.NewSession(doc, feedback.Options{})
		if a.P == 1 {
			continue
		}
		if _, err := s.Apply(q, a.Value, feedback.Incorrect); err != nil {
			continue
		}
		clear(year.asked)
		if next, _, err = integrate.Integrate(s.Tree(), srcs[25], cfg); err == nil {
			rejected = s.Tree()
			break
		}
	}
	if rejected == nil {
		t.Fatal("no director could be rejected")
	}
	rebuilt := 0
	for _, e := range certainMovies(rejected) {
		if want := map[bool]int{true: 0, false: 1}[held[e]]; year.asked[e] != want {
			t.Fatalf("a catalog movie (rebuilt: %v) was asked its key %d times", !held[e], year.asked[e])
		}
		if !held[e] {
			rebuilt++
		}
	}
	if rebuilt == 0 {
		t.Fatal("the rejection rebuilt no certain movie")
	}
	inDoc = elements(next)
	for _, e := range oracle.TableNodes(o) {
		if !inDoc[e] {
			t.Fatal("after the rejection the table holds an element absent from the document")
		}
	}
}

// certainMovies lists the certain children of t's catalog.
func certainMovies(t *pxml.Tree) []*pxml.Node {
	var out []*pxml.Node
	for _, prob := range t.RootElements()[0].Children() {
		if prob.NumChildren() == 1 {
			out = append(out, prob.Child(0).Children()...)
		}
	}
	return out
}

// TestSharedOracleAcrossDatabases: one Oracle serving two folds at once —
// two databases whose tables take turns — gives each the document a fold
// with an Oracle of its own gives.
func TestSharedOracleAcrossDatabases(t *testing.T) {
	rules := func() []oracle.Rule { return oracle.SetGenreTitleYear.Rules() }
	fold := func(o *oracle.Oracle, srcs []*pxml.Tree) (*pxml.Tree, error) {
		cfg := integrate.Config{Oracle: o, Schema: datagen.MovieDTD()}
		doc := srcs[0]
		for _, src := range srcs[1:] {
			next, _, err := integrate.Integrate(doc, src, cfg)
			if err != nil {
				return nil, err
			}
			doc = next
		}
		return doc, nil
	}
	seqs := [][]*pxml.Tree{foldSources(5, 12), foldSources(6, 12)}
	want := make([]*pxml.Tree, len(seqs))
	for i, srcs := range seqs {
		var err error
		if want[i], err = fold(oracle.New(rules()), srcs); err != nil {
			t.Fatal(err)
		}
	}
	shared := oracle.New(rules())
	got := make([]*pxml.Tree, len(seqs))
	errs := make([]error, len(seqs))
	var wg sync.WaitGroup
	for i, srcs := range seqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = fold(shared, srcs)
		}()
	}
	wg.Wait()
	for i := range seqs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !pxml.Equal(got[i].Root(), want[i].Root()) {
			t.Fatalf("fold %d: the shared Oracle's document differs from its own Oracle's", i)
		}
	}
}
