package pxml_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/codec"
	"repro/internal/datagen"
	"repro/internal/integrate"
	"repro/internal/oracle"
	"repro/internal/pxml"
	"repro/internal/pxmltest"
)

// compactCorpus returns documents of every shape the arena layouts carry:
// random catalogs, the datagen sources, their integrations (whose merged
// subtrees are shared between alternatives), and choice points at
// probability exactly 1 and at 1−ε.
func compactCorpus(t *testing.T) map[string]*pxml.Tree {
	t.Helper()
	docs := map[string]*pxml.Tree{}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		docs[fmt.Sprintf("catalog %d", i)] = pxmltest.RandomCatalog(rng, 1+rng.Intn(40))
		docs[fmt.Sprintf("random %d", i)] = pxmltest.RandomTree(rng, pxmltest.DefaultGenConfig())
	}
	cfg := integrate.Config{Oracle: oracle.MovieOracle(oracle.SetGenreTitleYear), Schema: datagen.MovieDTD()}
	for name, pair := range map[string]datagen.Pair{
		"table1":    datagen.TableISources(),
		"confusing": datagen.Confusing(12, 3),
		"typical":   datagen.Typical(10, 10, 4, 5),
	} {
		docs[name+" A"], docs[name+" B"] = pair.A.Tree, pair.B.Tree
		merged, _, err := integrate.Integrate(pair.A.Tree, pair.B.Tree, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		docs[name+" integrated"] = merged
	}
	shared := pxml.NewElem("movie", "", pxml.Certain(pxml.NewLeaf("title", "Jaws")))
	eps := 1e-7
	docs["near one"] = pxml.CertainTree(pxml.NewElem("catalog", "",
		pxml.NewProb(pxml.NewPoss(1-eps, shared), pxml.NewPoss(eps, shared, pxml.NewLeaf("year", "1975"))),
		pxml.NewProb(pxml.NewPoss(1, shared)),
		pxml.NewProb(pxml.NewPoss(1-eps), pxml.NewPoss(eps, shared)),
	))
	return docs
}

// checkSameDocument fails unless got is want: Equal, the same digest and
// physical node count, and every probability bit for bit.
func checkSameDocument(t *testing.T, label string, want, got *pxml.Tree) {
	t.Helper()
	if !pxml.Equal(want.Root(), got.Root()) || want.Digest() != got.Digest() {
		t.Fatalf("%s: decoded document differs", label)
	}
	if w, g := want.PhysicalNodeCount(), got.PhysicalNodeCount(); w != g {
		t.Fatalf("%s: %d physical nodes, want %d", label, g, w)
	}
	var probs func(a, b *pxml.Node)
	probs = func(a, b *pxml.Node) {
		if math.Float64bits(a.Prob()) != math.Float64bits(b.Prob()) {
			t.Fatalf("%s: probability %v decoded as %v", label, a.Prob(), b.Prob())
		}
		for k := range a.Children() {
			probs(a.Child(k), b.Child(k))
		}
	}
	probs(want.Root(), got.Root())
}

// TestCompactLayoutRoundTrip: every document round-trips through arena
// revision 3 unchanged, its revision 2 payload still decodes to the same
// document, and revision 3 is never the larger of the two.
func TestCompactLayoutRoundTrip(t *testing.T) {
	var rev2, rev3 int
	for name, doc := range compactCorpus(t) {
		var tab codec.SharedStrings
		compact := doc.AppendBinaryShared(nil, &tab)
		old := doc.AppendBinaryRev2(nil, &tab)
		if compact[0] != pxml.BinaryVersionCompact || old[0] != pxml.BinaryVersionShared {
			t.Fatalf("%s: revisions %d and %d", name, compact[0], old[0])
		}
		if len(compact) > len(old) {
			t.Fatalf("%s: revision 3 takes %d bytes, revision 2 %d", name, len(compact), len(old))
		}
		rev2, rev3 = rev2+len(old), rev3+len(compact)
		for label, payload := range map[string][]byte{"revision 3": compact, "revision 2": old} {
			got, err := pxml.DecodeArenaWith(payload, pxml.DecodeArenaOptions{Strings: tab.Strings(), ExpectLogical: doc.NodeCount()})
			if err != nil {
				t.Fatalf("%s, %s: %v", name, label, err)
			}
			checkSameDocument(t, name+", "+label, doc, got)
		}
	}
	t.Logf("revision 2: %d bytes, revision 3: %d bytes", rev2, rev3)
}

// TestCompactLayoutRecordKinds pins the two changes of revision 3 on a
// tiny document: a possibility at exactly 1 is one kind byte, one at
// 1−ε keeps its eight probability bytes, and children are counted back
// from their parent.
func TestCompactLayoutRecordKinds(t *testing.T) {
	leaf := pxml.NewLeaf("a", "")
	var tab codec.SharedStrings
	certain := pxml.CertainTree(leaf).AppendBinaryShared(nil, &tab)
	// [3][count 3][elem a ""][certain poss: 1 child, 1 back][prob: 1 child, 1 back][digest]
	want := []byte{pxml.BinaryVersionCompact, 3, byte(pxml.KindElem), 0, 1, 0, 3, 1, 1, byte(pxml.KindProb), 1, 1}
	if got := certain[:len(certain)-8]; string(got) != string(want) {
		t.Fatalf("certain leaf encodes as %v, want %v", got, want)
	}
	near := pxml.MustTree(pxml.NewProb(pxml.NewPoss(1-1e-7, leaf), pxml.NewPoss(1e-7))).AppendBinaryShared(nil, &tab)
	if len(near) != len(certain)+2*9+1 {
		t.Fatalf("two possibilities below 1 take %d bytes, want %d", len(near), len(certain)+2*9+1)
	}
}
