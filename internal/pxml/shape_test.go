package pxml_test

import (
	"math/rand"
	"testing"

	"repro/internal/pxml"
	"repro/internal/pxmltest"
)

// regroup returns a copy of the element that DeepEqualElems calls equal to
// it: the runs of elements between genuine choice points are split into
// trivial choice points at random, empty trivial choice points are added
// and dropped, and every alternative's probability moves by less than
// ProbEpsilon. It recurses into every element and alternative.
func regroup(rng *rand.Rand, e *pxml.Node) *pxml.Node {
	var items []*pxml.Node // what deepIter yields, regrouped
	for _, prob := range e.Children() {
		if prob.NumChildren() == 1 {
			for _, c := range prob.Child(0).Children() {
				items = append(items, regroup(rng, c))
			}
			continue
		}
		alts := make([]*pxml.Node, prob.NumChildren())
		for i, poss := range prob.Children() {
			kids := make([]*pxml.Node, poss.NumChildren())
			for j, c := range poss.Children() {
				kids[j] = regroup(rng, c)
			}
			alts[i] = pxml.NewPoss(poss.Prob()+(rng.Float64()-0.5)*pxml.ProbEpsilon, kids...)
		}
		items = append(items, pxml.NewProb(alts...))
	}
	var kids []*pxml.Node
	for i := 0; i < len(items); {
		if rng.Intn(4) == 0 {
			kids = append(kids, pxml.Certain())
		}
		if items[i].Kind() == pxml.KindProb {
			kids, i = append(kids, items[i]), i+1
			continue
		}
		j := i + 1
		for j < len(items) && items[j].Kind() == pxml.KindElem && rng.Intn(2) == 0 {
			j++
		}
		kids, i = append(kids, pxml.Certain(items[i:j]...)), j
	}
	return pxml.NewElem(e.Tag(), e.Text(), kids...)
}

// randomElem is the document element of a random tree.
func randomElem(seed int64, cfg pxmltest.GenConfig) *pxml.Node {
	return pxmltest.RandomTree(rand.New(rand.NewSource(seed)), cfg).RootElements()[0]
}

// checkShape holds ShapeDigest to its contract on one pair: deep-equal
// elements have equal shape digests.
func checkShape(t testing.TB, a, b *pxml.Node) bool {
	t.Helper()
	eq := pxml.DeepEqualElems(a, b)
	if eq && pxml.ShapeDigest(a) != pxml.ShapeDigest(b) {
		t.Fatalf("deep-equal elements with shape digests %x and %x:\n%v\n%v", pxml.ShapeDigest(a), pxml.ShapeDigest(b), a, b)
	}
	return eq
}

// TestShapeDigestConsistentWithDeepEqual: on random trees, on their
// regrouped copies and on pairs of small random trees (which are now and
// then deep-equal by chance), deep equality implies equal shape digests.
// Unequal shapes must also turn up, or the property would hold of a
// constant.
func TestShapeDigestConsistentWithDeepEqual(t *testing.T) {
	small := pxmltest.GenConfig{MaxDepth: 2, MaxChoices: 2, MaxAlts: 2, MaxElems: 2, AllowEmptyAlt: true}
	var regrouped, chance, distinct int
	for seed := int64(0); seed < 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := randomElem(seed, pxmltest.DefaultGenConfig())
		b := regroup(rng, a)
		if !checkShape(t, a, b) {
			t.Fatalf("regroup made a copy DeepEqualElems tells apart:\n%v\n%v", a, b)
		}
		if pxml.Hash(a) != pxml.Hash(b) {
			regrouped++
		}
		x, y := randomElem(seed, small), randomElem(seed+1, small)
		if checkShape(t, x, y) {
			chance++
		} else if pxml.ShapeDigest(x) != pxml.ShapeDigest(y) {
			distinct++
		}
		checkShape(t, x, regroup(rng, y))
	}
	if regrouped < 1000 || chance < 10 || distinct < 1000 {
		t.Fatalf("generator too thin: %d regrouped copies with another digest, %d deep-equal pairs by chance, %d with distinct shapes",
			regrouped, chance, distinct)
	}
}

func FuzzShapeDigest(f *testing.F) {
	f.Add(int64(1), int64(2), uint8(0))
	f.Add(int64(7), int64(7), uint8(1))
	f.Add(int64(3), int64(4), uint8(2))
	f.Fuzz(func(t *testing.T, seedA, seedB int64, mode uint8) {
		cfg := pxmltest.GenConfig{MaxDepth: 1 + int(mode%3), MaxChoices: 2, MaxAlts: 3, MaxElems: 2, AllowEmptyAlt: mode&4 != 0}
		a := randomElem(seedA, cfg)
		b := randomElem(seedB, cfg)
		if mode&8 != 0 {
			b = regroup(rand.New(rand.NewSource(seedB)), a)
		}
		checkShape(t, a, b)
		checkShape(t, b, a)
	})
}
