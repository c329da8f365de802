//go:build !race

// The race detector's sync.Pool drops a share of what is put back, so these
// allocation counts hold in a plain build only.

package pxml_test

import (
	"math/rand"
	"testing"

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
