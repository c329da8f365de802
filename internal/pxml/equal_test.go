package pxml_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pxml"
	"repro/internal/pxmltest"
)

func TestEqualBasics(t *testing.T) {
	a := pxml.NewElem("movie", "", pxml.Certain(pxml.NewLeaf("title", "Jaws")))
	b := pxml.NewElem("movie", "", pxml.Certain(pxml.NewLeaf("title", "Jaws")))
	c := pxml.NewElem("movie", "", pxml.Certain(pxml.NewLeaf("title", "Jaws 2")))
	if !pxml.Equal(a, b) {
		t.Fatalf("structurally equal trees reported unequal")
	}
	if pxml.Equal(a, c) {
		t.Fatalf("different trees reported equal")
	}
	if !pxml.Equal(a, a) {
		t.Fatalf("identity should be equal")
	}
	if pxml.Equal(a, nil) || pxml.Equal(nil, a) {
		t.Fatalf("nil comparisons should be false")
	}
	if !pxml.Equal(nil, nil) {
		t.Fatalf("nil == nil")
	}
}

func TestEqualProbabilityTolerance(t *testing.T) {
	mk := func(p float64) *pxml.Node {
		return pxml.NewProb(pxml.NewPoss(p, pxml.NewLeaf("a", "")), pxml.NewPoss(1-p))
	}
	if !pxml.Equal(mk(0.5), mk(0.5+1e-9)) {
		t.Fatalf("probabilities within epsilon should compare equal")
	}
	if pxml.Equal(mk(0.5), mk(0.6)) {
		t.Fatalf("different probabilities should compare unequal")
	}
}

func TestEqualDifferentKinds(t *testing.T) {
	if pxml.Equal(pxml.NewLeaf("a", ""), pxml.NewPoss(1)) {
		t.Fatalf("different kinds equal")
	}
	if pxml.Equal(pxml.NewLeaf("a", "x"), pxml.NewLeaf("a", "y")) {
		t.Fatalf("different text equal")
	}
	if pxml.Equal(pxml.NewLeaf("a", ""), pxml.NewLeaf("b", "")) {
		t.Fatalf("different tag equal")
	}
}

func TestHashConsistentWithEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := pxmltest.DefaultGenConfig()
	trees := make([]*pxml.Tree, 30)
	for i := range trees {
		trees[i] = pxmltest.RandomTree(rng, cfg)
	}
	for i, a := range trees {
		for j, b := range trees {
			eq := pxml.Equal(a.Root(), b.Root())
			ha, hb := pxml.Hash(a.Root()), pxml.Hash(b.Root())
			if eq && ha != hb {
				t.Fatalf("trees %d,%d equal but hashes differ", i, j)
			}
		}
	}
}

func TestHashDistinguishesSmallChanges(t *testing.T) {
	a := pxml.NewElem("movie", "", pxml.Certain(pxml.NewLeaf("title", "Jaws")))
	b := pxml.NewElem("movie", "", pxml.Certain(pxml.NewLeaf("title", "Jaw")))
	if pxml.Hash(a) == pxml.Hash(b) {
		t.Fatalf("hash collision on different titles (possible but indicates a bug at this scale)")
	}
	if pxml.Hash(nil) != 0 {
		t.Fatalf("nil hash should be 0")
	}
}

func TestDeepEqualElemsIgnoresTrivialChoiceBookkeeping(t *testing.T) {
	// Same content, one built with separate trivial choice points per child,
	// the other with a single grouped choice point.
	a := pxml.NewElem("person", "",
		pxml.Certain(pxml.NewLeaf("nm", "John")),
		pxml.Certain(pxml.NewLeaf("tel", "1111")),
	)
	b := pxml.NewElem("person", "",
		pxml.Certain(pxml.NewLeaf("nm", "John"), pxml.NewLeaf("tel", "1111")),
	)
	if !pxml.DeepEqualElems(a, b) {
		t.Fatalf("deep-equal should ignore trivial choice point grouping")
	}
	c := pxml.NewElem("person", "",
		pxml.Certain(pxml.NewLeaf("nm", "John"), pxml.NewLeaf("tel", "9999")),
	)
	if pxml.DeepEqualElems(a, c) {
		t.Fatalf("different phone numbers should not be deep-equal")
	}
	if pxml.DeepEqualElems(a, nil) || pxml.DeepEqualElems(nil, a) {
		t.Fatalf("nil deep-equal should be false")
	}
	if !pxml.DeepEqualElems(a, a) {
		t.Fatalf("identity deep-equal")
	}
	if pxml.DeepEqualElems(pxml.NewLeaf("a", "x"), pxml.NewLeaf("a", "y")) {
		t.Fatalf("different leaf text deep-equal")
	}
}

func TestDeepEqualElemsComparesUncertainPartsStructurally(t *testing.T) {
	mk := func(p float64) *pxml.Node {
		return pxml.NewElem("person", "",
			pxml.NewProb(
				pxml.NewPoss(p, pxml.NewLeaf("tel", "1111")),
				pxml.NewPoss(1-p, pxml.NewLeaf("tel", "2222")),
			),
		)
	}
	if !pxml.DeepEqualElems(mk(0.5), mk(0.5)) {
		t.Fatalf("identical uncertain elements should be deep-equal")
	}
	if pxml.DeepEqualElems(mk(0.5), mk(0.7)) {
		t.Fatalf("different choice probabilities should not be deep-equal")
	}
}

func TestEqualQuickProperty(t *testing.T) {
	// Property: for random seeds, a tree generated twice from the same seed
	// is Equal and hashes identically; trees from different seeds are
	// usually different (not asserted), but Equal must stay symmetric.
	f := func(seed int64) bool {
		cfg := pxmltest.DefaultGenConfig()
		a := pxmltest.RandomTree(rand.New(rand.NewSource(seed)), cfg)
		b := pxmltest.RandomTree(rand.New(rand.NewSource(seed)), cfg)
		if !pxml.Equal(a.Root(), b.Root()) {
			return false
		}
		if pxml.Hash(a.Root()) != pxml.Hash(b.Root()) {
			return false
		}
		c := pxmltest.RandomTree(rand.New(rand.NewSource(seed+1)), cfg)
		return pxml.Equal(a.Root(), c.Root()) == pxml.Equal(c.Root(), a.Root())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDeepEqualElemsChildCountMismatch(t *testing.T) {
	short := pxml.NewElem("person", "", pxml.Certain(pxml.NewLeaf("nm", "John")))
	long := pxml.NewElem("person", "",
		pxml.Certain(pxml.NewLeaf("nm", "John")),
		pxml.Certain(), // an empty trivial choice point adds nothing
		pxml.Certain(pxml.NewLeaf("tel", "1111")),
	)
	if pxml.DeepEqualElems(short, long) || pxml.DeepEqualElems(long, short) {
		t.Fatalf("a prefix of the children is not deep-equal to the whole list")
	}
	padded := pxml.NewElem("person", "", pxml.Certain(), pxml.Certain(pxml.NewLeaf("nm", "John")), pxml.Certain())
	if !pxml.DeepEqualElems(short, padded) {
		t.Fatalf("empty trivial choice points should not affect deep equality")
	}
}
