package core_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/query"
)

// TestQuerySingleflightAccounting: N concurrent identical cold queries on a
// fresh database evaluate exactly once. Timing decides whether a given
// caller collapses onto the in-flight evaluation or hits the cache after it
// publishes, but the invariant misses==1 && hits+collapses==N-1 holds
// either way.
func TestQuerySingleflightAccounting(t *testing.T) {
	db := openBookA(t)
	if _, err := db.IntegrateXML(strings.NewReader(bookB)); err != nil {
		t.Fatalf("IntegrateXML: %v", err)
	}

	const clients = 16
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = db.QueryEval(`//person/tel`, query.Options{})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	st := db.ResultCacheStats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (single execution)", st.Misses)
	}
	if st.Hits+st.Collapses != clients-1 {
		t.Fatalf("hits=%d collapses=%d, want hits+collapses=%d", st.Hits, st.Collapses, clients-1)
	}
	qs := db.QueryStats()
	if qs.Started != clients || qs.Active != 0 {
		t.Fatalf("query stats = %+v, want started=%d active=0", qs, clients)
	}
}

// TestQueryEvalCtxCanceled: a pre-canceled request context aborts the
// evaluation with ctx.Err() and is counted as a canceled query.
func TestQueryEvalCtxCanceled(t *testing.T) {
	db := openBookA(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.QueryEvalCtx(ctx, `//person/tel`, query.Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := db.QueryStats().Canceled; got < 1 {
		t.Fatalf("canceled = %d, want >= 1", got)
	}
}

// TestQueryBudgetAbortCounted: exhausting the node-visit budget surfaces
// ErrBudgetExhausted and increments the budget-abort counter.
func TestQueryBudgetAbortCounted(t *testing.T) {
	db := openBookA(t)
	if _, err := db.IntegrateXML(strings.NewReader(bookB)); err != nil {
		t.Fatalf("IntegrateXML: %v", err)
	}
	_, err := db.QueryEvalCtx(context.Background(), `//person/tel`, query.Options{MaxNodeVisits: 1})
	if !errors.Is(err, query.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if got := db.QueryStats().BudgetAborts; got < 1 {
		t.Fatalf("budget aborts = %d, want >= 1", got)
	}
}

// TestQueryParseErrorNotCached: a query that fails to parse goes through
// the result cache's flight like any miss. Every call reports the same
// query.Compile error, no entry is stored, and concurrent identical calls
// all get that error. Whether a concurrent caller collapses onto a failing
// flight or leads its own depends on timing, so the concurrent half pins
// what holds either way; query's TestResultCacheSharesParseError holds the
// leader and pins exactly one miss.
func TestQueryParseErrorNotCached(t *testing.T) {
	db := openBookA(t)
	const src = `//movie[`
	_, want := query.Compile(src)
	if want == nil {
		t.Fatalf("%q compiled", src)
	}
	before := db.ResultCacheStats()
	for i := 0; i < 2; i++ {
		if _, err := db.Query(src); err == nil || err.Error() != want.Error() {
			t.Fatalf("call %d: err = %v, want %v", i, err, want)
		}
	}
	st := db.ResultCacheStats()
	if st.Size != before.Size || st.Misses != before.Misses+2 || st.Hits != before.Hits {
		t.Fatalf("stats %+v after two failed parses from %+v: want two more misses and no entry", st, before)
	}

	const clients = 16
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = db.Query(src)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("client %d: err = %v, want %v", i, err, want)
		}
	}
	after := db.ResultCacheStats()
	misses, collapses := after.Misses-st.Misses, after.Collapses-st.Collapses
	if after.Size != st.Size || after.Hits != st.Hits || misses < 1 || misses+collapses != clients {
		t.Fatalf("%d concurrent failed parses: %d misses, %d collapses, stats %+v", clients, misses, collapses, after)
	}
}
