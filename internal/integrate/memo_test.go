package integrate_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/integrate"
	"repro/internal/oracle"
	"repro/internal/pxml"
)

// wideBook builds an address book with n persons; overlap persons share
// names with wideBook(n, otherTel) so integrating two of them produces
// real oracle work per person.
func wideBook(n int, tel string) string {
	var b strings.Builder
	b.WriteString("<addressbook>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<person><nm>P%d</nm><tel>%s</tel></person>", i, tel)
	}
	b.WriteString("</addressbook>")
	return b.String()
}

// bookOracle decides person pairs by name: different names cannot match,
// equal names stay undecided (same name, different tel — a genuine
// choice). Without the key rule every cross pair is undecided and the
// whole book collapses into one enormous component.
func bookOracle() *oracle.Oracle {
	return oracle.New([]oracle.Rule{oracle.KeyField("person", "nm")})
}

// TestMemoDeterministicAcrossWorkers: Config.Workers and Config.Memo are
// accepted and ignored. For every worker count, with no memo or with one
// that is reused across runs and purged, integrating the same pair gives
// pxml.Equal trees and identical Stats, run after run.
func TestMemoDeterministicAcrossWorkers(t *testing.T) {
	var (
		refTree  *pxml.Tree
		refStats integrate.Stats
	)
	memo := integrate.NewMemo(0)
	for _, workers := range []int{0, 1, 2, 8} {
		for _, m := range []*integrate.Memo{nil, memo} {
			cfg := integrate.Config{Oracle: bookOracle(), Schema: personDTD, Memo: m, Workers: workers}
			for run := 0; run < 2; run++ {
				res, st, err := integrate.Integrate(
					mustDecode(t, wideBook(12, "1111")), mustDecode(t, wideBook(12, "2222")), cfg)
				if err != nil {
					t.Fatalf("workers=%d run %d: %v", workers, run, err)
				}
				if refTree == nil {
					refTree, refStats = res, *st
					continue
				}
				if !pxml.Equal(res.Root(), refTree.Root()) {
					t.Fatalf("workers=%d memo=%v run %d: tree differs", workers, m != nil, run)
				}
				if *st != refStats {
					t.Fatalf("workers=%d memo=%v run %d: stats diverge:\n got %+v\nwant %+v", workers, m != nil, run, *st, refStats)
				}
			}
			m.Purge()
		}
	}
	if refStats.OracleCalls == 0 || refStats.UndecidedPairs == 0 {
		t.Fatalf("input too small: %+v", refStats)
	}
}

// TestMemoSplicedChildrenCounted: sources touching a small slice of a
// wide document leave the untouched siblings spliced, and the counter
// proves the delta path ran.
func TestMemoSplicedChildrenCounted(t *testing.T) {
	cfg := integrate.Config{Oracle: bookOracle(), Schema: personDTD}
	// 10 persons on the A side, a source mentioning only one name: 9+ of
	// the A children are untouched by any candidate component.
	src := `<addressbook><person><nm>P0</nm><tel>9999</tel></person></addressbook>`
	_, st, err := integrate.Integrate(mustDecode(t, wideBook(10, "1111")), mustDecode(t, src), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.SplicedChildren == 0 {
		t.Fatalf("expected spliced children on a delta integration: %+v", st)
	}
}

// TestWorkerPanicReachesCaller: a panic in integration code — here a faulty
// Oracle rule — surfaces on the goroutine that called Integrate (where e.g.
// the HTTP server's recovery middleware turns it into a 500), whatever
// Workers says.
func TestWorkerPanicReachesCaller(t *testing.T) {
	a := mustDecode(t, `<addressbook><person><nm>A</nm></person><person><nm>B</nm></person></addressbook>`)
	b := mustDecode(t, `<addressbook><person><nm>C</nm></person><person><nm>D</nm></person></addressbook>`)
	boom := oracle.NewRule("boom", func(x, y *pxml.Node) oracle.Verdict { panic("boom") })
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want the rule's panic value", r)
		}
	}()
	_, _, _ = integrate.Integrate(a, b, integrate.Config{Oracle: oracle.New([]oracle.Rule{boom}), Workers: 4})
	t.Errorf("integration should have panicked")
}

// TestParallelTruncationDeterministic pins the budget-truncation path: a
// component over budget truncates to the same tree and Stats on every run
// and for every worker count.
func TestParallelTruncationDeterministic(t *testing.T) {
	pair := datagen.Confusing(18, 5)
	var ref *pxml.Tree
	var refStats integrate.Stats
	for _, workers := range []int{1, 4, 1} {
		res, st, err := integrate.Integrate(pair.A.Tree, pair.B.Tree, integrate.Config{
			Oracle:                   oracle.MovieOracle(oracle.SetTitle),
			Schema:                   datagen.MovieDTD(),
			MaxMatchingsPerComponent: 10,
			TruncateOnExplosion:      true,
			Workers:                  workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.TruncatedComponents == 0 {
			t.Fatalf("no component was truncated: %+v", st)
		}
		if ref == nil {
			ref, refStats = res, *st
			continue
		}
		if !pxml.Equal(res.Root(), ref.Root()) || *st != refStats {
			t.Fatalf("workers=%d: truncated result differs\n got %+v\nwant %+v", workers, *st, refStats)
		}
	}
}
