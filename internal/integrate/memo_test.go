package integrate_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

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

// TestMemoSecondRunHitsWithoutDoubleCounting is the stats-merging
// regression pin: integrating the same pair twice through one shared memo
// must answer the second run entirely from the memo — VerdictMemoHits
// covering every decided pair, and crucially OracleCalls NOT re-counted
// (the bug class this pins: attributing memoized work to the hitting call
// would double-count every cross-call counter).
func TestMemoSecondRunHitsWithoutDoubleCounting(t *testing.T) {
	memo := integrate.NewMemo(0)
	cfg := integrate.Config{Oracle: bookOracle(), Schema: personDTD, Memo: memo}

	a1, b1 := mustDecode(t, wideBook(8, "1111")), mustDecode(t, wideBook(8, "2222"))
	res1, st1, err := integrate.Integrate(a1, b1, cfg)
	if err != nil {
		t.Fatalf("cold integrate: %v", err)
	}
	if st1.OracleCalls == 0 {
		t.Fatal("cold run made no oracle calls; test input too small")
	}

	a2, b2 := mustDecode(t, wideBook(8, "1111")), mustDecode(t, wideBook(8, "2222"))
	res2, st2, err := integrate.Integrate(a2, b2, cfg)
	if err != nil {
		t.Fatalf("warm integrate: %v", err)
	}
	if !pxml.Equal(res1.Root(), res2.Root()) {
		t.Fatal("warm result differs from cold result")
	}
	if res1.WorldCount().Cmp(res2.WorldCount()) != 0 {
		t.Fatalf("world counts differ: %s vs %s", res1.WorldCount(), res2.WorldCount())
	}
	// An identical rerun is answered at the root from the merge memo:
	// nothing is recomputed, so no compute counter moves.
	if st2.VerdictMemoHits+st2.MergeMemoHits == 0 {
		t.Fatalf("warm run hit no memo entries: %+v", st2)
	}
	if st2.OracleCalls != 0 {
		t.Fatalf("warm run re-counted %d oracle calls for memoized verdicts", st2.OracleCalls)
	}
	// Pair-classification counters attribute to the computing call only:
	// a back-to-back identical integration must not inflate them.
	if st2.MustPairs != 0 || st2.CannotPairs != 0 || st2.UndecidedPairs != 0 {
		t.Fatalf("warm run re-counted pair buckets: %+v", st2)
	}
	if st2.MatchingsEnumerated != 0 {
		t.Fatalf("warm run re-counted matchings: %+v", st2)
	}
	ms := memo.Stats()
	if ms.Hits == 0 || ms.Misses == 0 || ms.Entries == 0 {
		t.Fatalf("memo counters not tracking: %+v", ms)
	}

	// A third run with one extra person cannot be answered wholesale —
	// the root digests differ — but every repeated person pair is served
	// from the verdict memo, so only the new person's pairs hit the
	// oracle. The new person has no name: a named one would be blocked
	// against every differently named person by the key rule's blocking
	// key and never reach the oracle, a key-less one meets everyone.
	grown := strings.Replace(wideBook(8, "2222"), "</addressbook>",
		"<person><tel>2222</tel></person></addressbook>", 1)
	_, st3, err := integrate.Integrate(mustDecode(t, wideBook(8, "1111")), mustDecode(t, grown), cfg)
	if err != nil {
		t.Fatalf("grown integrate: %v", err)
	}
	if st3.VerdictMemoHits == 0 {
		t.Fatalf("grown run hit no verdict memo entries: %+v", st3)
	}
	if st3.OracleCalls != 8 || st3.OracleCalls >= st1.OracleCalls {
		t.Fatalf("grown run should decide only the 8 pairs of the new person: cold=%d grown=%d",
			st1.OracleCalls, st3.OracleCalls)
	}

	// A verdict error — a rule conflict under oracle.Strict — is returned,
	// not cached: the same call fails the same way twice, and the one entry
	// the memo holds afterwards is the root pair's failed merge.
	for _, memo := range []*integrate.Memo{nil, integrate.NewMemo(0)} {
		strict := integrate.Config{Oracle: oracle.New([]oracle.Rule{oracle.YearRule(), sameTitle}, oracle.Strict()), Memo: memo}
		var first string
		for run := 0; run < 2; run++ {
			_, _, err := integrate.Integrate(mustDecode(t, jaws1975), mustDecode(t, jaws1978), strict)
			var conflict *oracle.ConflictError
			if !errors.As(err, &conflict) {
				t.Fatalf("strict run %d: err = %v, want a *oracle.ConflictError", run, err)
			}
			if run == 0 {
				first = err.Error()
			} else if err.Error() != first {
				t.Fatalf("second strict run failed differently: %q, first %q", err, first)
			}
			if memo != nil && memo.Stats().Entries != 1 {
				t.Fatalf("strict run %d: memo holds %d entries, want the failed root merge alone", run, memo.Stats().Entries)
			}
		}
	}
}

// TestMemoDeterministicAcrossWorkers is the determinism property: for
// every worker count, both the cold and the memo-warm integration must
// produce pxml.Equal trees AND identical Stats. With a shared memo this
// requires compute-once attribution — a timing-dependent hit/miss split
// would make OracleCalls depend on scheduling.
func TestMemoDeterministicAcrossWorkers(t *testing.T) {
	type outcome struct {
		cold, warm integrate.Stats
	}
	var (
		refTree *pxml.Tree
		ref     *outcome
	)
	for _, workers := range []int{1, 2, 4, 8} {
		memo := integrate.NewMemo(0)
		cfg := integrate.Config{
			Oracle:  bookOracle(),
			Schema:  personDTD,
			Memo:    memo,
			Workers: workers,
		}
		res1, cold, err := integrate.Integrate(
			mustDecode(t, wideBook(12, "1111")), mustDecode(t, wideBook(12, "2222")), cfg)
		if err != nil {
			t.Fatalf("workers=%d cold: %v", workers, err)
		}
		res2, warm, err := integrate.Integrate(
			mustDecode(t, wideBook(12, "1111")), mustDecode(t, wideBook(12, "2222")), cfg)
		if err != nil {
			t.Fatalf("workers=%d warm: %v", workers, err)
		}
		if !pxml.Equal(res1.Root(), res2.Root()) {
			t.Fatalf("workers=%d: warm tree differs from cold tree", workers)
		}
		got := &outcome{cold: *cold, warm: *warm}
		if ref == nil {
			refTree, ref = res1, got
			continue
		}
		if !pxml.Equal(res1.Root(), refTree.Root()) {
			t.Fatalf("workers=%d: tree differs from workers=1 tree", workers)
		}
		if got.cold != ref.cold {
			t.Fatalf("workers=%d cold stats diverge:\n got %+v\nwant %+v", workers, got.cold, ref.cold)
		}
		if got.warm != ref.warm {
			t.Fatalf("workers=%d warm stats diverge:\n got %+v\nwant %+v", workers, got.warm, ref.warm)
		}
	}
}

// TestMemoEquivalentToNoMemo: the memo is an optimization, never a
// semantic change — with and without it, integration yields Equal trees.
func TestMemoEquivalentToNoMemo(t *testing.T) {
	plain := integrate.Config{Oracle: bookOracle(), Schema: personDTD}
	memod := plain
	memod.Memo = integrate.NewMemo(0)
	for _, pair := range [][2]string{
		{bookA, bookB},
		{wideBook(6, "1111"), wideBook(9, "2222")},
		{wideBook(3, "1111"), "<addressbook><person><nm>Q</nm></person></addressbook>"},
	} {
		r1, _, err := integrate.Integrate(mustDecode(t, pair[0]), mustDecode(t, pair[1]), plain)
		if err != nil {
			t.Fatalf("plain: %v", err)
		}
		r2, _, err := integrate.Integrate(mustDecode(t, pair[0]), mustDecode(t, pair[1]), memod)
		if err != nil {
			t.Fatalf("memo: %v", err)
		}
		if !pxml.Equal(r1.Root(), r2.Root()) {
			t.Fatalf("memoized result differs for %q + %q", pair[0], pair[1])
		}
		if r1.WorldCount().Cmp(r2.WorldCount()) != 0 {
			t.Fatalf("world counts differ: %s vs %s", r1.WorldCount(), r2.WorldCount())
		}
	}
}

// TestMemoCapPurges: a memo over its entry cap is dropped wholesale
// before the next integration, and the purge is counted.
func TestMemoCapPurges(t *testing.T) {
	memo := integrate.NewMemo(1) // absurdly small: any real run overflows
	cfg := integrate.Config{Oracle: bookOracle(), Schema: personDTD, Memo: memo}
	if _, _, err := integrate.Integrate(mustDecode(t, wideBook(4, "1111")), mustDecode(t, wideBook(4, "2222")), cfg); err != nil {
		t.Fatal(err)
	}
	if memo.Stats().Entries <= 1 {
		t.Fatalf("first run should overflow the cap: %+v", memo.Stats())
	}
	if _, _, err := integrate.Integrate(mustDecode(t, bookA), mustDecode(t, bookB), cfg); err != nil {
		t.Fatal(err)
	}
	ms := memo.Stats()
	if ms.Purges == 0 {
		t.Fatalf("over-cap memo was not purged: %+v", ms)
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
