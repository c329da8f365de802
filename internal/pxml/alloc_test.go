//go:build !race

// The race detector's sync.Pool drops a share of what is put back, so these
// allocation counts hold in a plain build only.

package pxml_test

import (
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/codec"
	"repro/internal/datagen"
	"repro/internal/integrate"
	"repro/internal/oracle"
	"repro/internal/pxml"
	"repro/internal/pxmltest"
)

// TestChoicePointsAllocs: the walks reuse a pooled visited set, so a warm
// ChoicePoints call — the one every integrate reply makes — allocates at
// most twice, however large the document, and CollectStats does not grow a
// map per call either.
func TestChoicePointsAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := pxmltest.RandomTree(rng, pxmltest.DefaultGenConfig())
	for tr.ChoicePoints() == 0 {
		tr = pxmltest.RandomTree(rng, pxmltest.DefaultGenConfig())
	}
	want := tr.ChoicePoints()
	if n := testing.AllocsPerRun(100, func() {
		if tr.ChoicePoints() != want {
			t.Fatal("choice point count changed")
		}
	}); n > 2 {
		t.Fatalf("warm ChoicePoints allocates %v times, want at most 2", n)
	}
	tr.CollectStats()
	// Worlds is a fresh big.Int copy per call; the walk itself adds nothing.
	if n := testing.AllocsPerRun(100, func() { tr.CollectStats() }); n > 2 {
		t.Fatalf("warm CollectStats allocates %v times, want at most 2", n)
	}
}

// TestBuilderHitsDoNotAllocate: a Builder looks a node up from its parts
// before it allocates one, so building again what it already holds — the
// common case in a catalog-shaped source — allocates nothing.
func TestBuilderHitsDoNotAllocate(t *testing.T) {
	b := pxml.NewBuilder()
	build := func() *pxml.Node {
		year := b.Prob(b.Poss(0.25, b.Leaf("year", "1975")), b.Poss(0.75, b.Leaf("year", "1976")))
		return b.Elem("movie", "", b.Certain(b.Leaf("title", "Jaws")), year)
	}
	first := build()
	size := b.Size()
	if n := testing.AllocsPerRun(100, func() {
		if build() != first {
			t.Fatal("rebuilding gave another node than the interned one")
		}
	}); n != 0 {
		t.Fatalf("rebuilding interned nodes allocates %v times, want 0", n)
	}
	if b.Size() != size {
		t.Fatalf("the table grew from %d to %d nodes on hits", size, b.Size())
	}
}

// mallocs counts the heap allocations of one call of f; unlike
// testing.AllocsPerRun it runs f only once, so the first call is the one
// measured.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestNormalizeOwnResultIsFree: a node remembers its normal form, so the
// first Normalize of a Normalize result — every node of which is canonical,
// the ones Normalize built included — returns that very tree and allocates
// nothing.
func TestNormalizeOwnResultIsFree(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	changed := 0
	for i := 0; i < 200; i++ {
		tr := pxmltest.RandomTree(rng, pxmltest.DefaultGenConfig())
		nt := tr.MustNormalize()
		if nt != tr {
			changed++
		}
		var again *pxml.Tree
		if n := mallocs(func() { again = nt.MustNormalize() }); n != 0 || again != nt {
			t.Fatalf("tree %d: normalizing a normal form allocates %d times and returns the same tree: %v", i, n, again == nt)
		}
	}
	if changed < 100 {
		t.Fatalf("fixtures too thin: normalization changed %d of 200 trees", changed)
	}
}

// TestSummaryAllocsPerNode: a summary costs its own struct, one exact-size
// tag set for an element (wrappers share their child's), the children's
// fingerprint column where there are two or more and a world count where
// one is summed or multiplied — at most 2.1 allocations per summarized node
// on an integrated catalog of confusable movies, where growing each tag set
// by insertion cost 2.23.
func TestSummaryAllocsPerNode(t *testing.T) {
	cfg := integrate.Config{Oracle: oracle.MovieOracle(oracle.SetGenreTitle), Schema: datagen.MovieDTD()}
	doc := datagen.Confusing(18, 1).A.Tree
	for seed := int64(1); seed <= 4; seed++ {
		next, _, err := integrate.Integrate(doc, datagen.Confusing(18, seed).B.Tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		doc = next
	}
	// A decoded copy has no summary yet.
	fresh, err := pxml.DecodeArena(doc.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	nodes := fresh.PhysicalNodeCount()
	allocs := mallocs(func() { fresh.Summary() })
	perNode := float64(allocs) / float64(nodes)
	t.Logf("%d allocations for %d summarized nodes (%d logical, %d choice points): %.2f per node",
		allocs, nodes, fresh.NodeCount(), fresh.ChoicePoints(), perNode)
	if fresh.ChoicePoints() == 0 || nodes < 1000 {
		t.Fatalf("fixture too thin: %d nodes, %d choice points", nodes, fresh.ChoicePoints())
	}
	if perNode > 2.1 {
		t.Fatalf("a full summary allocates %.2f times per node, want at most 2.1", perNode)
	}
}

// TestAppendBinarySharedReusesIndex: the arena encoder takes its node index
// from a pool, so a warm append of a source — what every journalled
// integrate does — allocates no map, nor anything else once the string
// table holds the source's strings and dst has room. A whole-document
// index is not kept for reuse, and the next small append still allocates
// nothing.
func TestAppendBinarySharedReusesIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := pxmltest.RandomCatalog(rng, 40)
	var tab codec.SharedStrings
	want := src.AppendBinaryShared(nil, &tab)
	dst := make([]byte, 0, 2*len(want))
	if n := testing.AllocsPerRun(100, func() { dst = src.AppendBinaryShared(dst[:0], &tab) }); n != 0 {
		t.Fatalf("a warm append allocates %v times, want 0", n)
	}
	if string(dst) != string(want) {
		t.Fatal("a warm append wrote other bytes")
	}
	leaves := make([]*pxml.Node, 5000)
	for i := range leaves {
		leaves[i] = pxml.Certain(pxml.NewLeaf("n", strconv.Itoa(i)))
	}
	pxml.CertainTree(pxml.NewElem("doc", "", leaves...)).AppendBinaryShared(nil, &tab)
	if n := testing.AllocsPerRun(100, func() { dst = src.AppendBinaryShared(dst[:0], &tab) }); n != 0 {
		t.Fatalf("after a large append, a warm append allocates %v times, want 0", n)
	}
}
