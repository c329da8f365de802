//go:build !race

// Like the other allocation regressions, these counts are pinned in a plain
// build, without the race detector's instrumentation.

package core_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/pxml"
	"repro/internal/query"
)

// TestResultCacheHitAllocs: a result-cache hit is served before the query
// text is parsed, so it allocates only the copy of the plan that flags it
// as a hit — compiling the query alone would add several allocations.
func TestResultCacheHitAllocs(t *testing.T) {
	kids := make([]*pxml.Node, 64)
	for i := range kids {
		kids[i] = pxml.Certain(pxml.NewElem("movie", "",
			pxml.Certain(pxml.NewLeaf("title", fmt.Sprintf("Film %d", i))),
			pxml.Certain(pxml.NewLeaf("year", fmt.Sprint(1950+i)))))
	}
	db, err := core.Open(pxml.CertainTree(pxml.NewElem("catalog", "", kids...)), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const src = `//movie[title="Film 7"]/year`
	ctx, opts := context.Background(), query.Options{}
	if res, err := db.QueryEvalCtx(ctx, src, opts); err != nil || res.P("1957") != 1 {
		t.Fatalf("cold look-up: %v, err %v", res.Answers, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if res, err := db.QueryEvalCtx(ctx, src, opts); err != nil || !res.Plan.CacheHit {
			t.Fatalf("repeated look-up was no cache hit: err %v", err)
		}
	})
	if allocs > 1 {
		t.Fatalf("a result-cache hit allocates %.0f times, want at most 1 (the plan copy)", allocs)
	}
}
