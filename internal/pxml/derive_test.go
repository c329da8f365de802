package pxml_test

import (
	"math/rand"
	"testing"

	"repro/internal/pxml"
	"repro/internal/pxmltest"
)

// TestDeriveSummaryEqualsSummary: an element built from another's children
// — some dropped, the rest reordered, new ones added, a position hint lost
// or claimed twice — gets from DeriveSummary the summary Summary computes
// over all its children, field by field, whether the arithmetic derives it
// or a lost child's maximum forces the full merge; both paths are taken,
// and the full one is reported.
func TestDeriveSummaryEqualsSummary(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := pxmltest.DefaultGenConfig()
	kid := func() *pxml.Node {
		a := pxmltest.RandomTree(rng, cfg).Root()
		if rng.Intn(3) == 0 {
			b := pxmltest.RandomTree(rng, cfg).RootElements()[0]
			return pxml.NewProb(pxml.NewPoss(0.4, a.Child(0).Children()...), pxml.NewPoss(0.6, b))
		}
		return a
	}
	texts := []string{"", "x", "John"}
	var derived, full int
	for round := 0; round < 3000; round++ {
		baseKids := make([]*pxml.Node, rng.Intn(9))
		for i := range baseKids {
			baseKids[i] = kid()
		}
		base := pxml.NewElem("r", texts[rng.Intn(len(texts))], baseKids...)
		base.Summary()
		var kids []*pxml.Node
		var from []int
		for _, b := range rng.Perm(len(baseKids)) {
			if rng.Intn(4) > 0 {
				kids, from = append(kids, baseKids[b]), append(from, b)
			}
		}
		for k := rng.Intn(4); k > 0; k-- {
			at := rng.Intn(len(kids) + 1)
			kids = append(kids[:at], append([]*pxml.Node{kid()}, kids[at:]...)...)
			from = append(from[:at], append([]int{-1}, from[at:]...)...)
		}
		switch {
		case len(kids) == 0:
		case rng.Intn(6) == 0:
			from[rng.Intn(len(from))] = -1
		case rng.Intn(6) == 0 && from[0] >= 0:
			kids, from = append(kids, kids[0]), append(from, from[0])
		}
		text := texts[rng.Intn(len(texts))]
		n := pxml.NewElem("r", text, kids...)
		merged, all := pxml.DeriveSummary(n, base, from)
		if all {
			full++
			if merged != len(kids) {
				t.Fatalf("round %d: a full merge of %d children reports %d", round, len(kids), merged)
			}
		} else {
			derived++
		}
		if d := pxmltest.SummaryDiff(n.Summary(), pxml.NewElem("r", text, kids...).Summary()); d != "" {
			t.Fatalf("round %d: derived and merged summaries differ: %s", round, d)
		}
	}
	if derived < 1000 || full < 100 {
		t.Fatalf("property too thin: %d derived, %d merged in full", derived, full)
	}
	t.Logf("%d derived, %d merged in full", derived, full)
}

// TestDeriveSummaryNeedsBase: without a summary of base to derive from, or
// with a position list that does not fit, DeriveSummary leaves the summary
// to be computed on first use.
func TestDeriveSummaryNeedsBase(t *testing.T) {
	leaf := pxml.Certain(pxml.NewLeaf("a", "x"))
	base := pxml.NewElem("r", "", leaf)
	n := pxml.NewElem("r", "", leaf, pxml.Certain(pxml.NewLeaf("b", "y")))
	if merged, all := pxml.DeriveSummary(n, base, []int{0, -1}); merged != 0 || all {
		t.Fatalf("no base summary: merged %d, full %v", merged, all)
	}
	base.Summary()
	if merged, all := pxml.DeriveSummary(n, base, []int{0}); merged != 0 || all {
		t.Fatalf("a short position list: merged %d, full %v", merged, all)
	}
	if merged, all := pxml.DeriveSummary(n, base, []int{0, -1}); merged != 1 || all {
		t.Fatalf("one child gained: merged %d, full %v", merged, all)
	}
	if d := pxmltest.SummaryDiff(n.Summary(), pxml.NewElem("r", "", leaf, pxml.Certain(pxml.NewLeaf("b", "y"))).Summary()); d != "" {
		t.Fatal(d)
	}
}
