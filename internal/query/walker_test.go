package query_test

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/pxml"
	"repro/internal/query"
	"repro/internal/worlds"
)

// walkerQueries are evaluated on every world the walker lays out: `/*`
// yields the string value of the top-level elements, every text of the
// world in document order; the others add predicates over the laid-out
// children.
var walkerQueries = []string{`/*`, `//*[title]/year`, `//a[b="x"]/c`}

// walkedWorld is one world as a walk reports it.
type walkedWorld struct {
	vals []string
	bits uint64
}

// enumeratedWorlds is the reference: worlds.Enumerate over the certain
// document of root (or the document itself for its root choice point),
// each world materialized and evaluated by EvalWorld.
func enumeratedWorlds(q *query.Query, root *pxml.Node) []walkedWorld {
	var t *pxml.Tree
	if root.Kind() == pxml.KindElem {
		t = pxml.CertainTree(root)
	} else {
		t = pxml.MustTree(root)
	}
	var out []walkedWorld
	worlds.Enumerate(t, func(w worlds.World) bool {
		out = append(out, walkedWorld{sortedKeys(query.EvalWorld(q, w.Elements)), math.Float64bits(w.P)})
		return true
	})
	return out
}

func walkedWorlds(q *query.Query, root *pxml.Node) []walkedWorld {
	var out []walkedWorld
	query.WalkWorldValues(q, root, func(vals []string, p float64) {
		out = append(out, walkedWorld{slices.Clone(vals), math.Float64bits(p)})
	})
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// assertSameWalk compares the walker's worlds of root with the reference:
// the same count, and world by world the same values and the same float64
// bits of the probability.
func assertSameWalk(t *testing.T, label string, q *query.Query, root *pxml.Node) {
	t.Helper()
	got, want := walkedWorlds(q, root), enumeratedWorlds(q, root)
	if len(got) != len(want) {
		t.Fatalf("%s %s: walker visits %d worlds, worlds.Enumerate %d", label, q, len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i].vals, want[i].vals) || got[i].bits != want[i].bits {
			t.Fatalf("%s %s: world %d is %q p=%#x, worlds.Enumerate has %q p=%#x",
				label, q, i, got[i].vals, got[i].bits, want[i].vals, want[i].bits)
		}
	}
}

// TestWorldWalkerMatchesEnumerate: over every element of the property
// corpus and of six folds of random catalogs — every anchor any query can
// pick — and over each whole document of at most 5 000 worlds, the walker
// visits the worlds
// worlds.Enumerate materializes, in the same order, with the same values
// and bit-identical probabilities. An anchor holding one hash-consed choice
// subtree twice has the product of both occurrences' choices as its
// worlds. The seeded mode draws the worlds worlds.Sample draws and leaves
// the RNG where worlds.Sample leaves it.
func TestWorldWalkerMatchesEnumerate(t *testing.T) {
	qs := make([]*query.Query, len(walkerQueries))
	for i, src := range walkerQueries {
		qs[i] = query.MustCompile(src)
	}
	trees := exactGoldenTrees(t)
	for ti, tree := range trees {
		anchors := 0
		pxml.WalkUnique(tree.Root(), func(n *pxml.Node) bool {
			if n.Kind() == pxml.KindElem {
				anchors++
				for _, q := range qs {
					assertSameWalk(t, "element <"+n.Tag()+">", q, n)
				}
			}
			return true
		})
		if tree.WorldCount().Int64() <= 5000 {
			assertSameWalk(t, "document", qs[0], tree.Root())
		}
		if anchors == 0 {
			t.Fatalf("tree %d has no element", ti)
		}
	}

	// Two year choices that intern to one node: four worlds, not two.
	year := func() *pxml.Node {
		return pxml.NewProb(pxml.NewPoss(0.25, pxml.NewLeaf("year", "1975")), pxml.NewPoss(0.75, pxml.NewLeaf("year", "1978")))
	}
	movie := pxml.InternTree(pxml.CertainTree(pxml.NewElem("movie", "",
		pxml.Certain(pxml.NewLeaf("title", "Jaws")),
		pxml.Certain(pxml.NewElem("cut", "", year())),
		pxml.Certain(pxml.NewElem("cut", "", year()))))).RootElements()[0]
	cuts := pxml.ElementChildren(movie)
	if len(cuts) != 3 || cuts[1] != cuts[2] {
		t.Fatalf("the two cuts did not intern to one node: %v", cuts)
	}
	for _, src := range []string{`/*`, `//year`} {
		q := query.MustCompile(src)
		assertSameWalk(t, "shared choice", q, movie)
		if n := len(walkedWorlds(q, movie)); n != 4 {
			t.Fatalf("shared choice %s: %d worlds, want 4", src, n)
		}
	}

	for ti, tree := range trees {
		for seed := int64(1); seed <= 50; seed++ {
			got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			for draw := 0; draw < 3; draw++ {
				g := query.SampleWorldValues(qs[0], tree, got)
				w := sortedKeys(query.EvalWorld(qs[0], worlds.Sample(tree, want).Elements))
				if !slices.Equal(g, w) {
					t.Fatalf("tree %d seed %d draw %d: walker drew %q, worlds.Sample %q", ti, seed, draw, g, w)
				}
			}
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("tree %d seed %d: the walker consumed the RNG differently", ti, seed)
			}
		}
	}
}
