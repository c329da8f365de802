package core_test

import (
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pxml"
	"repro/internal/query"
	"repro/internal/xmlcodec"
)

func openFig2DB(t *testing.T) *core.Database {
	t.Helper()
	db, err := core.OpenXML(strings.NewReader(bookA), core.Config{Schema: personDTD})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.IntegrateXMLString(bookB); err != nil {
		t.Fatal(err)
	}
	return db
}

// summaryMallocs counts the heap allocations of reading t's summary: none
// when the summary is already computed, at least one per node when not.
func summaryMallocs(t *pxml.Tree) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t.Summary()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestIndexTracksTreeSwaps checks that every commit path publishes its
// tree with the summary the planner reads already computed, so no query
// pays for it, and that each commit counts one summary warm.
func TestIndexTracksTreeSwaps(t *testing.T) {
	db, err := core.OpenXML(strings.NewReader(bookA), core.Config{Schema: personDTD})
	if err != nil {
		t.Fatal(err)
	}
	// fresh decodes the current document afresh, so no node of it
	// carries a summary.
	fresh := func() *pxml.Tree {
		t.Helper()
		var buf strings.Builder
		if err := db.ExportXML(&buf, xmlcodec.EncodeOptions{}); err != nil {
			t.Fatal(err)
		}
		tr, err := xmlcodec.DecodeString(buf.String())
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	var commits int64 = 1 // the initial document's
	check := func(stage string) {
		t.Helper()
		tr := db.Tree()
		if n, nodes := summaryMallocs(tr), tr.PhysicalNodeCount(); 2*n >= uint64(nodes) {
			t.Fatalf("%s: reading the published summary allocated %d times over %d nodes: it was not warm", stage, n, nodes)
		}
		if db.Index() != tr.Summary() {
			t.Fatalf("%s: Index() is not the published tree's summary", stage)
		}
		if got := db.IndexStats().Builds; got != commits {
			t.Fatalf("%s: %d summary warms, want one per commit: %d", stage, got, commits)
		}
	}
	check("open")
	// The detector itself: a decoded document's summary is cold.
	if cold := fresh(); summaryMallocs(cold) < uint64(cold.PhysicalNodeCount()) {
		t.Fatal("a freshly decoded document's summary reads as warm")
	}

	snapDir := t.TempDir()
	if _, err := db.SaveSnapshot(snapDir, "index"); err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		stage string
		run   func() error
	}{
		{"integrate", func() error { _, err := db.IntegrateXMLString(bookB); return err }},
		{"feedback", func() error { _, err := db.Feedback(`//person[nm="John"]/tel`, "2222", false); return err }},
		{"normalize", func() error { _, _, err := db.Normalize(); return err }},
		{"batch", func() error {
			_, _, err := db.IntegrateBatchXML([]io.Reader{strings.NewReader(bookA), strings.NewReader(bookB)})
			return err
		}},
		{"replace", func() error { return db.ReplaceTree(fresh()) }},
		{"load", func() error { _, err := db.LoadSnapshot(snapDir); return err }},
	} {
		if err := step.run(); err != nil {
			t.Fatalf("%s: %v", step.stage, err)
		}
		commits++
		check(step.stage)
	}

	if st := db.IndexStats(); st.Tags == 0 || st.Elements == 0 {
		t.Fatalf("index stats describe no document: %+v", st)
	}
}

// TestResultCacheServesRepeatsAndInvalidates checks repeat queries hit
// the result cache and mutations invalidate it by tree identity.
func TestResultCacheServesRepeatsAndInvalidates(t *testing.T) {
	db := openFig2DB(t)
	const q = `//person[nm="John"]/tel`

	first, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Plan == nil || first.Plan.CacheHit {
		t.Fatalf("first evaluation claims a cache hit: %+v", first.Plan)
	}
	second, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if second.Plan == nil || !second.Plan.CacheHit {
		t.Fatalf("repeat evaluation not served from cache: %+v", second.Plan)
	}
	if len(first.Answers) != len(second.Answers) {
		t.Fatalf("cached answers differ: %v vs %v", first.Answers, second.Answers)
	}
	stats := db.ResultCacheStats()
	if stats.Hits < 1 || stats.Misses < 1 {
		t.Fatalf("result cache stats = %+v", stats)
	}

	// Feedback swaps the tree; the next evaluation must be fresh (and
	// reflect the conditioned document).
	if _, err := db.Feedback(q, "2222", false); err != nil {
		t.Fatal(err)
	}
	third, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if third.Plan == nil || third.Plan.CacheHit {
		t.Fatalf("post-mutation evaluation served stale cache: %+v", third.Plan)
	}
	if p := third.P("2222"); p > 1e-9 {
		t.Fatalf("rejected answer still has p=%g after feedback", p)
	}
}

// TestQueryEvalRejectsNegativeBudgets pins the satellite bugfix at the
// database layer: negative budgets are explicit errors, not defaults.
func TestQueryEvalRejectsNegativeBudgets(t *testing.T) {
	db := openFig2DB(t)
	for _, opts := range []query.Options{
		{Samples: -1},
		{EnumWorldLimit: -2},
		{LocalWorldLimit: -3},
	} {
		_, err := db.QueryEval(`//person/nm`, opts)
		if !errors.Is(err, query.ErrBadOptions) {
			t.Fatalf("QueryEval(%+v) = %v, want ErrBadOptions", opts, err)
		}
	}
}

// TestQueryMethodsAgreeThroughDatabase evaluates the same query with all
// explicit methods through the database and checks the auto choice equals
// its explicit counterpart bit for bit.
func TestQueryMethodsAgreeThroughDatabase(t *testing.T) {
	db := openFig2DB(t)
	const q = `//person[nm="John"]/tel`
	auto, err := db.QueryEval(q, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Plan == nil || auto.Plan.Method != auto.Method {
		t.Fatalf("auto plan/method mismatch: %+v vs %q", auto.Plan, auto.Method)
	}
	explicit, err := db.QueryEval(q, query.Options{Method: auto.Method})
	if err != nil {
		t.Fatal(err)
	}
	if len(auto.Answers) != len(explicit.Answers) {
		t.Fatalf("answer counts differ")
	}
	for i := range auto.Answers {
		if auto.Answers[i] != explicit.Answers[i] {
			t.Fatalf("answer %d differs: %+v vs %+v", i, auto.Answers[i], explicit.Answers[i])
		}
	}
}
