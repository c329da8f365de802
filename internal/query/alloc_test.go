//go:build !race

// Like the other allocation regressions, these byte counts are pinned in a
// plain build, without the race detector's instrumentation.

package query_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/pxml"
	"repro/internal/query"
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
		res, err := query.Eval(tr, q, query.Options{})
		if err != nil || len(res.Answers) != 0 || res.Method != query.MethodExact {
			t.Fatalf("width %d: %v answers by %s, err %v", n, res.Answers, res.Method, err)
		}
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := query.Eval(tr, q, query.Options{}); err != nil {
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

// choiceMovie is a catalog of one movie whose k genres each sit under a
// choice point of two alternatives: its anchor has 2^k local worlds, every
// one of which answers the look-up with the same year.
func choiceMovie(k int) *pxml.Tree {
	fields := []*pxml.Node{pxml.Certain(pxml.NewLeaf("title", "Heat")), pxml.Certain(pxml.NewLeaf("year", "1995"))}
	for i := 0; i < k; i++ {
		fields = append(fields, pxml.NewProb(pxml.NewPoss(0.5, pxml.NewLeaf("genre", "Crime")),
			pxml.NewPoss(0.5, pxml.NewLeaf("genre", "Drama"))))
	}
	return pxml.CertainTree(pxml.NewElem("catalog", "", pxml.Certain(pxml.NewElem("movie", "", fields...))))
}

// TestAnchorAllocsDoNotScaleWithWorlds: the exact executor walks an
// anchor's local worlds in one arena over the original nodes instead of
// building each world, so the bytes one evaluation allocates do not grow
// with the anchor's world count.
func TestAnchorAllocsDoNotScaleWithWorlds(t *testing.T) {
	q := query.MustCompile(`//movie[title="Heat"]/year`)
	bytesPerOp := func(k int) int64 {
		tr := choiceMovie(k)
		res, err := query.Eval(tr, q, query.Options{})
		if err != nil || res.Method != query.MethodExact || res.Exec.AnchorsEnumerated != 1 ||
			len(res.Answers) != 1 || res.Answers[0].Value != "1995" {
			t.Fatalf("k=%d: %v by %s (%+v), err %v", k, res.Answers, res.Method, res.Exec, err)
		}
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := query.Eval(tr, q, query.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	small := bytesPerOp(2)
	for k := 3; k <= 10; k++ {
		if got := bytesPerOp(k); float64(got) > 1.5*float64(small) {
			t.Fatalf("%d bytes per evaluation at 2^%d local worlds, %d at 2^2: allocation scales with worlds", got, k, small)
		}
	}
	t.Logf("%d bytes per evaluation at 2^2 local worlds, %d at 2^10", small, bytesPerOp(10))
}
