package integrate_test

import (
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/integrate"
	"repro/internal/oracle"
	"repro/internal/pxml"
	"repro/internal/pxmltest"
	"repro/internal/strsim"
)

// messySources renders n catalogs of the datagen movies the way sloppy
// sources would: every source a random dozen of the franchise and filler
// movies, a quarter of the titles misspelt, some years missing or off by
// one, the naming convention alternating.
func messySources(seed int64, n int) []*pxml.Tree {
	rng := rand.New(rand.NewSource(seed))
	confusing, typical := datagen.Confusing(18, seed), datagen.Typical(10, 10, 4, seed)
	var pool []datagen.Movie
	for _, s := range []datagen.Source{confusing.A, confusing.B, typical.A, typical.B} {
		pool = append(pool, s.Movies...)
	}
	out := make([]*pxml.Tree, n)
	for k := range out {
		movies := make([]datagen.Movie, 12)
		for i := range movies {
			m := pool[rng.Intn(len(pool))]
			if rng.Intn(4) == 0 {
				title := []rune(m.Title)
				title[rng.Intn(len(title))] = rune('a' + rng.Intn(26))
				m.Title = string(title)
			}
			switch rng.Intn(8) {
			case 0:
				m.Year = 0 // rendered without a <year>
			case 1:
				m.Year++
			}
			movies[i] = m
		}
		out[k] = pxml.InternTree(datagen.CatalogTree(movies, datagen.Convention(k%2)))
	}
	return out
}

// catalogSources is the fixture of TestBlockedEqualsUnblocked as a source
// sequence: random small catalogs whose years are present, absent,
// duplicated or uncertain.
func catalogSources(seed int64, n int) []*pxml.Tree {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*pxml.Tree, n)
	for k := range out {
		out[k] = pxmltest.RandomCatalog(rng, 2+rng.Intn(5))
	}
	return out
}

// fold integrates the sources one after the other into the first, skipping
// a source that cannot be integrated, and returns the document and every
// successful integration's Stats.
func fold(t *testing.T, srcs []*pxml.Tree, cfg integrate.Config) (*pxml.Tree, []integrate.Stats) {
	t.Helper()
	doc := srcs[0]
	var stats []integrate.Stats
	for _, src := range srcs[1:] {
		next, st, err := integrate.Integrate(doc, src, cfg)
		if err != nil {
			continue
		}
		doc = next
		stats = append(stats, *st)
	}
	return doc, stats
}

func sameFold(t *testing.T, label string, got, want *pxml.Tree, gotStats, wantStats []integrate.Stats) {
	t.Helper()
	if !pxml.Equal(got.Root(), want.Root()) {
		t.Fatalf("%s: documents differ\n%s\nversus\n%s", label, got, want)
	}
	if got.WorldCount().Cmp(want.WorldCount()) != 0 {
		t.Fatalf("%s: %s worlds versus %s", label, got.WorldCount(), want.WorldCount())
	}
	if len(gotStats) != len(wantStats) {
		t.Fatalf("%s: %d integrations succeeded versus %d", label, len(gotStats), len(wantStats))
	}
	for i := range gotStats {
		if gotStats[i] != wantStats[i] {
			t.Fatalf("%s: stats of integration %d differ\n%+v\nversus\n%+v", label, i, gotStats[i], wantStats[i])
		}
	}
}

// TestSimilarityPredicateEqualsSimilarity: integration cannot tell the title
// rule's threshold predicate (strsim.TitleBelow) from the similarity it
// stands for. An oracle with TitleRule and one whose title rule is built
// from strsim.TitleSim by the public constructor give the same documents,
// world counts and Stats, on random catalogs and on messy source sequences.
func TestSimilarityPredicateEqualsSimilarity(t *testing.T) {
	viaSim := []oracle.Rule{oracle.GenreRule(),
		oracle.Similarity("movie", "title", strsim.TitleSim, oracle.TitleThreshold), oracle.YearRule()}
	schema := datagen.MovieDTD()
	configs := func() (integrate.Config, integrate.Config) {
		return integrate.Config{Oracle: oracle.MovieOracle(oracle.SetGenreTitleYear), Schema: schema},
			integrate.Config{Oracle: oracle.New(viaSim, oracle.WithEstimator("movie", oracle.TitleEstimator())), Schema: schema}
	}
	var integrations, cannot int
	check := func(label string, srcs []*pxml.Tree) {
		predicate, similarity := configs()
		got, gotStats := fold(t, srcs, predicate)
		want, wantStats := fold(t, srcs, similarity)
		sameFold(t, label, got, want, gotStats, wantStats)
		integrations += len(gotStats)
		for _, st := range gotStats {
			cannot += st.CannotPairs
		}
	}
	for seed := int64(0); seed < 100; seed++ {
		check("random catalogs", catalogSources(seed, 4))
	}
	for seed := int64(1); seed <= 3; seed++ {
		srcs := messySources(seed, 8)
		check("messy sources", srcs)
	}
	if integrations < 300 || cannot < 10*integrations {
		t.Fatalf("property too thin: %d integrations, %d cannot-match pairs", integrations, cannot)
	}
}
