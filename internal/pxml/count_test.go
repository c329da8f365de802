package pxml_test

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/pxml"
	"repro/internal/pxmltest"
)

func TestCountsOnFig2(t *testing.T) {
	tr := pxmltest.Fig2Tree()
	// Count by hand:
	// root prob(1) + poss(1) + addressbook(1)
	// + inner prob(1) + 2 poss
	//   merged person: person + prob + poss + nm + prob + 2 poss + 2 tel = 9
	//   separate: 2 × (person + 2×(prob+poss+leaf)) = 2 × 7 = 14
	// total = 3 + 3 + 9 + 14 = 29
	if got := tr.NodeCount(); got != 29 {
		t.Fatalf("NodeCount = %d, want 29\n%s", got, tr)
	}
	if got := tr.WorldCount(); got.Cmp(big.NewInt(3)) != 0 {
		t.Fatalf("WorldCount = %s, want 3", got)
	}
	if got := tr.ChoicePoints(); got != 2 {
		t.Fatalf("ChoicePoints = %d, want 2", got)
	}
	s := tr.CollectStats()
	if s.LogicalNodes != 29 {
		t.Fatalf("stats logical = %d", s.LogicalNodes)
	}
	if s.LogicalProb+s.LogicalPoss+s.LogicalElem != s.LogicalNodes {
		t.Fatalf("kind counts don't add up: %+v", s)
	}
	if s.Worlds.Cmp(big.NewInt(3)) != 0 {
		t.Fatalf("stats worlds = %s", s.Worlds)
	}
	if s.MaxDepth < 6 {
		t.Fatalf("MaxDepth = %d, want >= 6", s.MaxDepth)
	}
}

func TestSharedSubtreesLogicalVsPhysical(t *testing.T) {
	// The shared movie subtree has 4 nodes (movie, prob, poss, title); it
	// occurs three times across the two alternatives.
	shared := pxml.NewElem("movie", "", pxml.Certain(pxml.NewLeaf("title", "Jaws")))
	root := pxml.NewElem("db", "", pxml.NewProb(
		pxml.NewPoss(0.5, shared),
		pxml.NewPoss(0.5, shared, shared),
	))
	tr := pxml.CertainTree(root)
	logical := tr.NodeCount()
	physical := tr.PhysicalNodeCount()
	if logical <= physical {
		t.Fatalf("logical %d should exceed physical %d with sharing", logical, physical)
	}
	// logical: root prob+poss + db + prob + 2 poss + 3×4 = 18
	if logical != 18 {
		t.Fatalf("logical = %d, want 18", logical)
	}
	// physical: root prob+poss + db + prob + 2 poss + 4 = 10
	if physical != 10 {
		t.Fatalf("physical = %d, want 10", physical)
	}
	stats := tr.CollectStats()
	if stats.PhysicalNodes != physical || stats.LogicalNodes != logical {
		t.Fatalf("stats disagree: %+v", stats)
	}
}

func TestWorldCountMultipliesAcrossIndependentChoices(t *testing.T) {
	choice := func(n int) *pxml.Node {
		poss := make([]*pxml.Node, n)
		for i := range poss {
			poss[i] = pxml.NewPoss(1/float64(n), pxml.NewLeaf("v", string(rune('a'+i))))
		}
		return pxml.NewProb(poss...)
	}
	root := pxml.NewElem("r", "", choice(2), choice(3), choice(5))
	tr := pxml.CertainTree(root)
	if got := tr.WorldCount(); got.Cmp(big.NewInt(30)) != 0 {
		t.Fatalf("WorldCount = %s, want 2*3*5 = 30", got)
	}
}

func TestWorldCountNestedChoices(t *testing.T) {
	// A choice whose alternative contains a further choice: worlds add then
	// multiply. outer: alt1 has inner 2-way choice, alt2 is plain. Total 3.
	inner := pxml.NewElem("x", "", pxml.NewProb(
		pxml.NewPoss(0.5, pxml.NewLeaf("y", "1")),
		pxml.NewPoss(0.5, pxml.NewLeaf("y", "2")),
	))
	root := pxml.NewElem("r", "", pxml.NewProb(
		pxml.NewPoss(0.5, inner),
		pxml.NewPoss(0.5, pxml.NewLeaf("z", "")),
	))
	tr := pxml.CertainTree(root)
	if got := tr.WorldCount(); got.Cmp(big.NewInt(3)) != 0 {
		t.Fatalf("WorldCount = %s, want 3", got)
	}
}

func TestCertainTreeHasOneWorld(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		elem := pxmltest.RandomCertainElem(rng, 3, 3)
		tr := pxml.CertainTree(elem)
		if got := tr.WorldCount(); got.Cmp(big.NewInt(1)) != 0 {
			t.Fatalf("certain tree has %s worlds", got)
		}
		if !tr.IsCertain() {
			t.Fatalf("certain tree reported uncertain")
		}
	}
}

func TestRandomTreesValidateAndCount(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfg := pxmltest.DefaultGenConfig()
	for i := 0; i < 50; i++ {
		tr := pxmltest.RandomTree(rng, cfg)
		if err := tr.Validate(); err != nil {
			t.Fatalf("random tree %d invalid: %v\n%s", i, err, tr)
		}
		if tr.NodeCount() < 3 {
			t.Fatalf("random tree %d too small", i)
		}
		if tr.WorldCount().Sign() <= 0 {
			t.Fatalf("random tree %d has non-positive world count", i)
		}
	}
}

// TestSummaryCountsMatchWalks pins the counts that come from the cached
// subtree summaries (NodeCount, the tag set's stats) and the pruned ChoicePoints walk
// against plain walks of the same definitions, on random documents in
// which one subtree is shared by two alternatives; and that no node's text
// fingerprint misses a text beneath it, nor its column of child
// fingerprints differs from the children's.
func TestSummaryCountsMatchWalks(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	cfg := pxmltest.DefaultGenConfig()
	for i := 0; i < 60; i++ {
		shared := pxmltest.RandomTree(rng, cfg).RootElements()[0]
		other := pxmltest.RandomTree(rng, cfg).RootElements()[0]
		tr := pxml.CertainTree(pxml.NewElem("root", "", pxml.NewProb(
			pxml.NewPoss(0.5, shared, other),
			pxml.NewPoss(0.5, shared, shared),
		)))

		var nodes int64
		count, inner := map[string]int64{}, map[string]int64{}
		maxWorlds := map[string]*big.Int{}
		pxml.Walk(tr.Root(), func(n *pxml.Node) bool {
			nodes++
			if n.Kind() == pxml.KindElem {
				count[n.Tag()]++
				if !n.IsLeaf() {
					inner[n.Tag()]++
				}
				if w := n.Summary().Worlds; maxWorlds[n.Tag()] == nil || w.Cmp(maxWorlds[n.Tag()]) > 0 {
					maxWorlds[n.Tag()] = w
				}
			}
			return true
		})
		choices := 0
		pxml.WalkUnique(tr.Root(), func(n *pxml.Node) bool {
			if n.Kind() == pxml.KindProb && n.NumChildren() > 1 {
				choices++
			}
			return true
		})

		if got := tr.NodeCount(); got != nodes {
			t.Fatalf("tree %d: NodeCount = %d, a walk counts %d", i, got, nodes)
		}
		if got := tr.ChoicePoints(); got != choices {
			t.Fatalf("tree %d: ChoicePoints = %d, an unpruned walk counts %d", i, got, choices)
		}
		stats := tr.Summary().Tags.Stats()
		if len(stats) != len(count) {
			t.Fatalf("tree %d: %d tags in the set, %d walked", i, len(stats), len(count))
		}
		for j, st := range stats {
			if j > 0 && stats[j-1].Tag >= st.Tag {
				t.Fatalf("tree %d: tag stats not sorted: %q before %q", i, stats[j-1].Tag, st.Tag)
			}
			if st.Count != count[st.Tag] || st.Inner != inner[st.Tag] || st.MaxWorlds.Cmp(maxWorlds[st.Tag]) != 0 {
				t.Fatalf("tree %d: <%s> count %d (%d with children) max worlds %s, a walk gives %d (%d) and %s",
					i, st.Tag, st.Count, st.Inner, st.MaxWorlds, count[st.Tag], inner[st.Tag], maxWorlds[st.Tag])
			}
		}
		if s := pxmltest.UncoveredText(tr.Root()); s != "" {
			t.Fatalf("tree %d: %s", i, s)
		}
	}
}

// TestStatsOneWalk: CollectStats' single traversal reports what the separate
// walks do, on random catalogs (interned: equal leaves and repeated records
// are shared nodes) and random uncertain trees. The documents a database
// goes through in integrate → reject-feedback → replace sequences get the
// same check in queryindex's TestBuildOnCarriedOverNodesMatchesReference.
func TestStatsOneWalk(t *testing.T) {
	uncertain := 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for label, tr := range map[string]*pxml.Tree{
			"random catalog": pxmltest.RandomCatalog(rng, 2+rng.Intn(8)),
			"random tree":    pxmltest.RandomTree(rng, pxmltest.DefaultGenConfig()),
		} {
			if diff := pxmltest.StatsWalkMismatch(tr); diff != "" {
				t.Fatalf("seed %d, %s: %s", seed, label, diff)
			}
			if tr.ChoicePoints() > 0 {
				uncertain++
			}
		}
	}
	if uncertain < 100 {
		t.Fatalf("fixtures too thin: %d documents with a choice point", uncertain)
	}
}
