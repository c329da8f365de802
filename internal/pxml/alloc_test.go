//go:build !race

// The race detector's sync.Pool drops a share of what is put back, so these
// allocation counts hold in a plain build only.

package pxml_test

import (
	"math/rand"
	"runtime"
	"testing"

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
