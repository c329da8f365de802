// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus micro-benchmarks of the core machinery. The shape
// targets (who wins, ratios, growth curves) are printed next to the
// paper's numbers by `go run ./cmd/experiments` and checked by the
// internal/experiments tests; run with:
//
//	go test -bench=. -benchmem
package imprecise_test

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	imprecise "repro"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/explain"
	"repro/internal/integrate"
	"repro/internal/oracle"
	"repro/internal/pxml"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/worlds"
	"repro/internal/xmlcodec"
)

// BenchmarkTableI regenerates Table I: the effect of rules on uncertainty.
// The reported "nodes" metric is the raw integration-result size per rule
// set; the paper's column is 13958/6015/243/154/29 (×100 nodes).
func BenchmarkTableI(b *testing.B) {
	pair := datagen.TableISources()
	schema := datagen.MovieDTD()
	for _, set := range []oracle.RuleSet{
		oracle.SetNone, oracle.SetGenre, oracle.SetTitle,
		oracle.SetGenreTitle, oracle.SetGenreTitleYear,
	} {
		b.Run(strings.ReplaceAll(set.String(), " ", "_"), func(b *testing.B) {
			var nodes int64
			for i := 0; i < b.N; i++ {
				res, _, err := integrate.Integrate(pair.A.Tree, pair.B.Tree, integrate.Config{
					Oracle:        oracle.MovieOracle(set),
					Schema:        schema,
					SkipNormalize: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				nodes = res.NodeCount()
			}
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}

// BenchmarkFigure5 regenerates Figure 5: integration-result size while the
// IMDB source grows, for the two rule series the paper plots.
func BenchmarkFigure5(b *testing.B) {
	schema := datagen.MovieDTD()
	for _, set := range experiments.Figure5Sets {
		name := "title_only"
		if set == oracle.SetGenreTitleYear {
			name = "title_and_year"
		}
		for _, n := range []int{0, 12, 24, 36, 48, 60} {
			pair := datagen.Confusing(n, 1)
			b.Run(name+"/n="+strconv.Itoa(n), func(b *testing.B) {
				var nodes int64
				for i := 0; i < b.N; i++ {
					res, _, err := integrate.Integrate(pair.A.Tree, pair.B.Tree, integrate.Config{
						Oracle:        oracle.MovieOracle(set),
						Schema:        schema,
						SkipNormalize: true,
					})
					if err != nil {
						b.Fatal(err)
					}
					nodes = res.NodeCount()
				}
				b.ReportMetric(float64(nodes), "nodes")
			})
		}
	}
}

// BenchmarkTypicalConditions regenerates the §V "typical situation"
// result: 6 vs 60 movies with 2 shared rwos integrate into a handful of
// possible worlds with two undecided matches.
func BenchmarkTypicalConditions(b *testing.B) {
	var r experiments.TypicalResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Typical()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.Nodes), "nodes")
	worldsF, _ := strconv.ParseFloat(r.Worlds.String(), 64)
	b.ReportMetric(worldsF, "worlds")
	b.ReportMetric(float64(r.Undecided), "undecided")
}

var queryDocOnce sync.Once
var queryDoc *pxml.Tree
var queryDocErr error

func queryDocument(b *testing.B) *pxml.Tree {
	queryDocOnce.Do(func() {
		queryDoc, queryDocErr = experiments.QueryDocument()
	})
	if queryDocErr != nil {
		b.Fatal(queryDocErr)
	}
	return queryDoc
}

// BenchmarkQueryHorror regenerates the first §VI example: the horror-movie
// query over the confusing integration, answered exactly despite hundreds
// of millions of possible worlds.
func BenchmarkQueryHorror(b *testing.B) {
	doc := queryDocument(b)
	q := query.MustCompile(experiments.HorrorQuery)
	b.ResetTimer()
	var top float64
	for i := 0; i < b.N; i++ {
		answers, err := query.EvalExact(doc, q, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(answers) == 0 {
			b.Fatal("no answers")
		}
		top = answers[0].P
	}
	b.ReportMetric(top, "topP")
}

// BenchmarkQueryJohn regenerates the second §VI example: movies directed
// by somebody named John, including the low-probability confusion
// artifact.
func BenchmarkQueryJohn(b *testing.B) {
	doc := queryDocument(b)
	q := query.MustCompile(experiments.JohnQuery)
	b.ResetTimer()
	var answers []query.Answer
	for i := 0; i < b.N; i++ {
		var err error
		answers, err = query.EvalExact(doc, q, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(answers)), "answers")
}

// BenchmarkAnswerQuality regenerates the §VII answer-quality experiment.
func BenchmarkAnswerQuality(b *testing.B) {
	var rows []experiments.QualityRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Quality()
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		b.ReportMetric(rows[0].Report.F1, "F1_first")
	}
}

// BenchmarkAblationFactorization measures the design choice DESIGN.md
// calls out: factorizing independent match groups into separate choice
// points keeps the representation additive.
func BenchmarkAblationFactorization(b *testing.B) {
	pair := datagen.Typical(6, 12, 4, 5)
	schema := datagen.MovieDTD()
	for _, disable := range []bool{false, true} {
		name := "factored"
		if disable {
			name = "monolithic"
		}
		b.Run(name, func(b *testing.B) {
			var nodes int64
			for i := 0; i < b.N; i++ {
				res, _, err := integrate.Integrate(pair.A.Tree, pair.B.Tree, integrate.Config{
					Oracle:                        oracle.MovieOracle(oracle.SetGenreTitleYear),
					Schema:                        schema,
					SkipNormalize:                 true,
					DisableComponentFactorization: disable,
				})
				if err != nil {
					b.Fatal(err)
				}
				nodes = res.NodeCount()
			}
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}

// BenchmarkEvaluators compares the three query evaluation strategies on an
// enumerable document (DESIGN E9).
func BenchmarkEvaluators(b *testing.B) {
	pair := datagen.Confusing(6, 1)
	tree, _, err := integrate.Integrate(pair.A.Tree, pair.B.Tree, integrate.Config{
		Oracle: oracle.MovieOracle(oracle.SetGenreTitleYear),
		Schema: datagen.MovieDTD(),
	})
	if err != nil {
		b.Fatal(err)
	}
	q := query.MustCompile(experiments.HorrorQuery)
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := query.EvalExact(tree, q, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enumerate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := query.EvalEnumerate(tree, q, 1000000); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sample1k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			query.EvalSample(tree, q, 1000, int64(i+1))
		}
	})
}

// BenchmarkIntegrateBatch measures the one-writer-lock batch ingest path
// against N sequential single-source integrations of the same documents.
func BenchmarkIntegrateBatch(b *testing.B) {
	sources := make([]string, 4)
	for i := range sources {
		pair := datagen.Typical(3, 6, 1, int64(i+1))
		src, err := xmlcodec.EncodeString(pair.B.Tree, xmlcodec.EncodeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		sources[i] = src
	}
	base := datagen.Typical(3, 6, 1, 99).A.Tree
	open := func() *imprecise.Database {
		db, err := imprecise.Open(base, imprecise.Config{Schema: datagen.MovieDTD()})
		if err != nil {
			b.Fatal(err)
		}
		return db
	}
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db := open()
			readers := make([]io.Reader, len(sources))
			for j, s := range sources {
				readers[j] = strings.NewReader(s)
			}
			if _, _, err := db.IntegrateBatchXML(readers); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db := open()
			for _, s := range sources {
				if _, err := db.IntegrateXMLString(s); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// --- micro benchmarks of the core machinery ---

func BenchmarkIntegrateFigure2(b *testing.B) {
	a, err := xmlcodec.DecodeString(`<addressbook><person><nm>John</nm><tel>1111</tel></person></addressbook>`)
	if err != nil {
		b.Fatal(err)
	}
	bb, err := xmlcodec.DecodeString(`<addressbook><person><nm>John</nm><tel>2222</tel></person></addressbook>`)
	if err != nil {
		b.Fatal(err)
	}
	schema := imprecise.MustParseDTD(`
		<!ELEMENT addressbook (person*)>
		<!ELEMENT person (nm, tel?)>
		<!ELEMENT nm (#PCDATA)>
		<!ELEMENT tel (#PCDATA)>`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := integrate.Integrate(a, bb, integrate.Config{Oracle: oracle.New(nil), Schema: schema}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNodeCount(b *testing.B) {
	doc := queryDocument(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc.NodeCount()
	}
}

func BenchmarkWorldCount(b *testing.B) {
	doc := queryDocument(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc.WorldCount()
	}
}

func BenchmarkWorldSampling(b *testing.B) {
	doc := queryDocument(b)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		worlds.Sample(doc, rng)
	}
}

func BenchmarkNormalize(b *testing.B) {
	pair := datagen.TableISources()
	res, _, err := integrate.Integrate(pair.A.Tree, pair.B.Tree, integrate.Config{
		Oracle:        oracle.MovieOracle(oracle.SetGenreTitle),
		Schema:        datagen.MovieDTD(),
		SkipNormalize: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := res.Normalize(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	doc := queryDocument(b)
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := xmlcodec.EncodeString(doc, xmlcodec.EncodeOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	out, err := xmlcodec.EncodeString(doc, xmlcodec.EncodeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := xmlcodec.DecodeString(out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkConditionAbsent(b *testing.B) {
	doc := queryDocument(b)
	q := query.MustCompile(`//movie/title`)
	// Pick an uncertain title to reject.
	answers, err := query.EvalExact(doc, q, 0)
	if err != nil {
		b.Fatal(err)
	}
	victim := ""
	for _, a := range answers {
		if a.P < 0.9 {
			victim = a.Value
			break
		}
	}
	if victim == "" {
		b.Fatal("no uncertain title")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := query.ConditionAbsent(doc, q, victim, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := query.Compile(experiments.JohnQuery); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExpectedCount(b *testing.B) {
	doc := queryDocument(b)
	q := query.MustCompile(`//movie[.//genre="Horror"]`)
	b.ResetTimer()
	var e float64
	for i := 0; i < b.N; i++ {
		var err error
		e, err = query.ExpectedCount(doc, q, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(e, "E[count]")
}

func BenchmarkExplainAnswer(b *testing.B) {
	doc := queryDocument(b)
	q := query.MustCompile(experiments.JohnQuery)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := explain.Answer(doc, q, "Mission: Impossible"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreSaveLoad(b *testing.B) {
	doc := queryDocument(b)
	dir := b.TempDir()
	b.Run("save", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := store.Save(dir, doc, datagen.MovieDTD(), ""); err != nil {
				b.Fatal(err)
			}
		}
	})
	if _, err := store.Save(dir, doc, datagen.MovieDTD(), ""); err != nil {
		b.Fatal(err)
	}
	b.Run("load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := store.Load(dir); err != nil {
				b.Fatal(err)
			}
		}
	})
}

const benchBookSource = `<addressbook><person><nm>John</nm><tel>1111</tel></person></addressbook>`

// --- failover ---

// failoverCluster builds a primary at ts with n committed ops and a
// caught-up follower, returning the pieces a failover benchmark needs.
// The returned stop function kills the primary's listener (the crash the
// promotion recovers from).
func failoverCluster(b *testing.B, n int) (rep *imprecise.Replica, repURL string, stopPrimary func(), closeAll func()) {
	b.Helper()
	cat, err := imprecise.OpenCatalog(b.TempDir(), imprecise.CatalogOptions{
		RootTag:      "addressbook",
		CompactEvery: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	db, err := cat.Create("bench")
	if err != nil {
		b.Fatal(err)
	}
	tree, err := xmlcodec.DecodeString(benchBookSource)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := db.Core().ReplaceTree(tree); err != nil {
			b.Fatal(err)
		}
	}
	ts := httptest.NewServer(imprecise.NewCatalogHTTPHandler(cat, imprecise.ServerOptions{}))
	rep, err = imprecise.OpenReplica(b.TempDir(), imprecise.ReplicaOptions{
		Primary:         ts.URL,
		Catalog:         imprecise.CatalogOptions{RootTag: "addressbook"},
		PollWait:        200 * time.Millisecond,
		MembershipEvery: 20 * time.Millisecond,
		MinBackoff:      10 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	err = rep.WaitCaughtUp(ctx)
	cancel()
	if err != nil {
		b.Fatal(err)
	}
	rts := httptest.NewServer(imprecise.NewReplicaHTTPHandler(rep, imprecise.ServerOptions{}))
	return rep, rts.URL, ts.Close, func() {
		rts.Close()
		ts.Close()
		rep.Close()
		cat.Close()
	}
}

// promoteNode POSTs /promote and fails the benchmark on anything but 200.
func promoteNode(b *testing.B, repURL string) {
	b.Helper()
	resp, err := http.Post(repURL+"/promote", "application/json", strings.NewReader(`{}`))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("promote: status %d", resp.StatusCode)
	}
}

// BenchmarkFailoverPromote measures time-to-promote: the primary (100
// committed ops, follower caught up) dies, and the clock runs from the
// POST /promote until the follower answers as a primary — final drain
// attempt, epoch raise + durable fence, and role flip included.
func BenchmarkFailoverPromote(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		_, repURL, stopPrimary, closeAll := failoverCluster(b, 100)
		stopPrimary()
		b.StartTimer()
		promoteNode(b, repURL)
		b.StopTimer()
		closeAll()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "promote_ms")
}

// BenchmarkFailoverSteadyOps measures the promoted node as a working
// primary: after the failover completes, b.N ops commit against it. The
// ops/s of the NEW primary is the cluster's post-failover write capacity.
func BenchmarkFailoverSteadyOps(b *testing.B) {
	rep, repURL, stopPrimary, closeAll := failoverCluster(b, 10)
	defer closeAll()
	stopPrimary()
	promoteNode(b, repURL)
	db, err := rep.Catalog().Get("bench")
	if err != nil {
		b.Fatal(err)
	}
	tree, err := xmlcodec.DecodeString(benchBookSource)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Core().ReplaceTree(tree); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "steady_ops/s")
}

// BenchmarkFailoverCatchup measures post-promotion catch-up: a fresh
// follower bootstraps from the PROMOTED primary — epoch-stamped snapshot
// plus b.N epoch-1 log records — until it serves. This is the time to
// restore read capacity after a failover.
func BenchmarkFailoverCatchup(b *testing.B) {
	rep, repURL, stopPrimary, closeAll := failoverCluster(b, 10)
	defer closeAll()
	stopPrimary()
	promoteNode(b, repURL)
	db, err := rep.Catalog().Get("bench")
	if err != nil {
		b.Fatal(err)
	}
	tree, err := xmlcodec.DecodeString(benchBookSource)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if err := db.Core().ReplaceTree(tree); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	rep2, err := imprecise.OpenReplica(b.TempDir(), imprecise.ReplicaOptions{
		Primary:         repURL,
		Catalog:         imprecise.CatalogOptions{RootTag: "addressbook"},
		PollWait:        200 * time.Millisecond,
		MembershipEvery: 20 * time.Millisecond,
		MinBackoff:      10 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	err = rep2.WaitCaughtUp(ctx)
	cancel()
	if err != nil {
		b.Fatal(err)
	}
	elapsed := b.Elapsed()
	b.StopTimer()
	if err := rep2.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(elapsed.Milliseconds()), "catchup_ms")
}
