//go:build !race

// Like the other allocation regressions, these byte counts are pinned in a
// plain build, without the race detector's instrumentation.

package query_test

import (
	"fmt"
	"testing"

	"repro/internal/pxml"
	"repro/internal/query"
	"repro/internal/queryindex"
)

// wideCatalog is a catalog of n distinct movies, every fourth with its year
// under a choice point.
func wideCatalog(n int) *pxml.Tree {
	kids := make([]*pxml.Node, n)
	for i := range kids {
		year := pxml.Certain(pxml.NewLeaf("year", fmt.Sprint(1950+i%60)))
		if i%4 == 0 {
			year = pxml.NewProb(pxml.NewPoss(0.5, pxml.NewLeaf("year", fmt.Sprint(1950+i%60))),
				pxml.NewPoss(0.5, pxml.NewLeaf("year", fmt.Sprint(1951+i%60))))
		}
		kids[i] = pxml.Certain(pxml.NewElem("movie", "", pxml.Certain(pxml.NewLeaf("title", fmt.Sprintf("Film %d", i))), year))
	}
	return pxml.CertainTree(pxml.NewElem("catalog", "", kids...))
}

// TestNonMatchingLookupAllocsDoNotScaleWithWidth: a title look-up that
// matches nothing prunes every top-level movie, and the planned executor
// never enters a pruned subtree in its memo, so the bytes one evaluation
// allocates do not grow with the catalog's width.
func TestNonMatchingLookupAllocsDoNotScaleWithWidth(t *testing.T) {
	q := query.MustCompile(`//movie[title="Nosferatu"]/year`)
	bytesPerOp := func(n int) int64 {
		tr := wideCatalog(n)
		idx := queryindex.Build(tr)
		res, err := query.EvalIndexed(tr, q, query.Options{}, idx)
		if err != nil || len(res.Answers) != 0 || res.Method != query.MethodExact {
			t.Fatalf("width %d: %v answers by %s, err %v", n, res.Answers, res.Method, err)
		}
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := query.EvalIndexed(tr, q, query.Options{}, idx); err != nil {
					b.Fatal(err)
				}
			}
		}).AllocedBytesPerOp()
	}
	narrow, wide := bytesPerOp(200), bytesPerOp(2000)
	t.Logf("%d bytes per evaluation on 200 movies, %d on 2 000", narrow, wide)
	if float64(wide) > 1.5*float64(narrow) {
		t.Fatalf("%d bytes per evaluation on 2 000 movies, %d on 200: allocation scales with width", wide, narrow)
	}
}
