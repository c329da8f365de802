// Package pxmltest provides shared fixtures and random document generators
// for testing the probabilistic XML machinery. It is imported only from
// tests, but lives as a regular package so that every test package can use
// the same generators.
package pxmltest

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/pxml"
)

// Fig2Tree reproduces the paper's Figure 2: the integration of two address
// books, both containing a person named John, with phone numbers 1111 and
// 2222 respectively. It represents exactly three possible worlds:
//
//	p=0.3  one John with phone 1111
//	p=0.3  one John with phone 2222
//	p=0.4  two Johns, one with each phone
//
// (The paper draws the tree without committing to probabilities; the split
// used here keeps all three worlds distinguishable in tests.)
func Fig2Tree() *pxml.Tree {
	nm := func() *pxml.Node { return pxml.NewLeaf("nm", "John") }
	tel := func(v string) *pxml.Node { return pxml.NewLeaf("tel", v) }

	mergedPerson := pxml.NewElem("person", "",
		pxml.Certain(nm()),
		pxml.NewProb(
			pxml.NewPoss(0.5, tel("1111")),
			pxml.NewPoss(0.5, tel("2222")),
		),
	)
	separate1 := pxml.NewElem("person", "", pxml.Certain(nm()), pxml.Certain(tel("1111")))
	separate2 := pxml.NewElem("person", "", pxml.Certain(nm()), pxml.Certain(tel("2222")))

	book := pxml.NewElem("addressbook", "",
		pxml.NewProb(
			pxml.NewPoss(0.6, mergedPerson),
			pxml.NewPoss(0.4, separate1, separate2),
		),
	)
	return pxml.CertainTree(book)
}

// UncoveredText checks Summary.TextBloom for false negatives, the one thing
// a query engine may not meet in it, and every node's column of child
// fingerprints, Summary.KidBlooms, against the children's own. It returns
// "" when every node's fingerprint covers every non-empty element text at
// or below it and every column holds its children's fingerprints in order,
// and otherwise a description of one failure. It reads each node's summary
// as cached, so a stale one carried over from an earlier document shows.
func UncoveredText(root *pxml.Node) string {
	uncovered := ""
	var texts func(n *pxml.Node) []string
	texts = func(n *pxml.Node) []string {
		var below []string
		if n.Text() != "" {
			below = append(below, n.Text())
		}
		for _, k := range n.Children() {
			below = append(below, texts(k)...)
		}
		sum := n.Summary()
		for _, s := range below {
			if !sum.TextBloom.Covers(pxml.TextBloomBits(s)) {
				uncovered = fmt.Sprintf("a node's fingerprint misses %q beneath it", s)
			}
		}
		kids := n.Children()
		if want := len(kids) > 1; (sum.KidBlooms != nil) != want || want && len(sum.KidBlooms) != len(kids) {
			uncovered = fmt.Sprintf("a column of %d fingerprints for %d children", len(sum.KidBlooms), len(kids))
		}
		for i, b := range sum.KidBlooms {
			if i < len(kids) && b != kids[i].Summary().TextBloom {
				uncovered = fmt.Sprintf("column entry %d differs from child %d's fingerprint", i, i)
			}
		}
		return below
	}
	texts(root)
	return uncovered
}

// StatsWalkMismatch compares Tree.CollectStats, which takes every figure
// from one traversal, with the walks that compute them one at a time —
// NodeCount (from the cached summaries), PhysicalNodeCount, ChoicePoints
// (which skips one-world subtrees), WorldCount and a plain recursive depth.
// It returns "" when they agree and a description of both otherwise.
func StatsWalkMismatch(tr *pxml.Tree) string {
	var depth func(n *pxml.Node) int
	depth = func(n *pxml.Node) int {
		d := 0
		for _, k := range n.Children() {
			d = max(d, depth(k))
		}
		return d + 1
	}
	st := tr.CollectStats()
	if st.LogicalNodes == tr.NodeCount() && st.LogicalNodes == st.LogicalProb+st.LogicalPoss+st.LogicalElem &&
		st.PhysicalNodes == tr.PhysicalNodeCount() && st.ChoicePoints == tr.ChoicePoints() &&
		st.MaxDepth == depth(tr.Root()) && st.Worlds.Cmp(tr.WorldCount()) == 0 {
		return ""
	}
	return fmt.Sprintf("one walk gives %+v; the separate walks %d logical, %d physical, %d choice points, depth %d, %s worlds",
		st, tr.NodeCount(), tr.PhysicalNodeCount(), tr.ChoicePoints(), depth(tr.Root()), tr.WorldCount())
}

// SummaryDiff describes the first field in which two summaries differ —
// world count, node kinds, depth, fingerprint, the children's fingerprints
// or a tag's aggregates — and returns "" when they agree on all.
func SummaryDiff(a, b *pxml.Summary) string {
	switch {
	case a.Worlds.Cmp(b.Worlds) != 0 || a.OneWorld() != b.OneWorld():
		return fmt.Sprintf("worlds %s, %s", a.Worlds, b.Worlds)
	case a.Kinds != b.Kinds:
		return fmt.Sprintf("kinds %v, %v", a.Kinds, b.Kinds)
	case a.Depth != b.Depth:
		return fmt.Sprintf("depth %d, %d", a.Depth, b.Depth)
	case a.TextBloom != b.TextBloom:
		return "text fingerprints differ"
	case !slices.Equal(a.KidBlooms, b.KidBlooms) || (a.KidBlooms == nil) != (b.KidBlooms == nil):
		return "children's fingerprints differ"
	case a.Tags.Len() != b.Tags.Len():
		return fmt.Sprintf("tags %v, %v", a.Tags.Tags(), b.Tags.Tags())
	}
	for i, sa := range a.Tags.Stats() {
		if sb := b.Tags.Stats()[i]; sa.Tag != sb.Tag || sa.Count != sb.Count || sa.Inner != sb.Inner || sa.MaxWorlds.Cmp(sb.MaxWorlds) != 0 {
			return fmt.Sprintf("tag %s: %d/%d/%s, %s: %d/%d/%s", sa.Tag, sa.Count, sa.Inner, sa.MaxWorlds, sb.Tag, sb.Count, sb.Inner, sb.MaxWorlds)
		}
	}
	return ""
}

// GenConfig bounds the shape of randomly generated documents.
type GenConfig struct {
	MaxDepth      int // element nesting depth
	MaxChoices    int // choice points per element
	MaxAlts       int // alternatives per choice point
	MaxElems      int // elements per alternative
	AllowEmptyAlt bool
}

// DefaultGenConfig keeps world counts small enough for exhaustive
// enumeration in property tests.
func DefaultGenConfig() GenConfig {
	return GenConfig{MaxDepth: 3, MaxChoices: 2, MaxAlts: 3, MaxElems: 2, AllowEmptyAlt: true}
}

var genTags = []string{"a", "b", "c", "movie", "title"}
var genTexts = []string{"", "x", "y", "John", "1111"}

// RandomTree generates a random valid probabilistic document. The same rng
// seed yields the same document.
func RandomTree(rng *rand.Rand, cfg GenConfig) *pxml.Tree {
	root := randomElem(rng, cfg, cfg.MaxDepth)
	return pxml.CertainTree(root)
}

func randomElem(rng *rand.Rand, cfg GenConfig, depth int) *pxml.Node {
	tag := genTags[rng.Intn(len(genTags))]
	text := genTexts[rng.Intn(len(genTexts))]
	if depth <= 0 {
		return pxml.NewLeaf(tag, text)
	}
	nChoices := rng.Intn(cfg.MaxChoices + 1)
	kids := make([]*pxml.Node, 0, nChoices)
	for i := 0; i < nChoices; i++ {
		kids = append(kids, randomProb(rng, cfg, depth-1))
	}
	return pxml.NewElem(tag, text, kids...)
}

func randomProb(rng *rand.Rand, cfg GenConfig, depth int) *pxml.Node {
	nAlts := 1 + rng.Intn(cfg.MaxAlts)
	weights := make([]float64, nAlts)
	sum := 0.0
	for i := range weights {
		weights[i] = 0.05 + rng.Float64()
		sum += weights[i]
	}
	poss := make([]*pxml.Node, nAlts)
	for i := range poss {
		minElems := 1
		if cfg.AllowEmptyAlt {
			minElems = 0
		}
		n := minElems
		if cfg.MaxElems > minElems {
			n += rng.Intn(cfg.MaxElems - minElems + 1)
		}
		elems := make([]*pxml.Node, n)
		for j := range elems {
			elems[j] = randomElem(rng, cfg, depth-1)
		}
		poss[i] = pxml.NewPoss(weights[i]/sum, elems...)
	}
	return pxml.NewProb(poss...)
}

// RandomCertainElem generates a random certain element tree (every choice
// point trivial), useful for integration tests on plain documents.
func RandomCertainElem(rng *rand.Rand, depth, fanout int) *pxml.Node {
	tag := genTags[rng.Intn(len(genTags))]
	if depth <= 0 {
		return pxml.NewLeaf(tag, genTexts[rng.Intn(len(genTexts))])
	}
	n := rng.Intn(fanout + 1)
	if n == 0 {
		return pxml.NewLeaf(tag, genTexts[rng.Intn(len(genTexts))])
	}
	kids := make([]*pxml.Node, n)
	for i := range kids {
		kids[i] = pxml.Certain(RandomCertainElem(rng, depth-1, fanout))
	}
	return pxml.NewElem(tag, "", kids...)
}

// The movie vocabulary of RandomCatalog: small pools, so that records of
// different catalogs collide. The titles hold near-duplicates on both
// sides of the Oracle's title threshold.
var (
	catalogTitles    = []string{"Jaws", "Jawz", "Jaws 2", "Alien", "Aliens", "Alien 3", "Heat", "Solaris", "The Thing", "Thing, The"}
	catalogYears     = []string{"1975", "1978", "1979", "1995"}
	catalogGenres    = []string{"Horror", "Thriller", "Drama"}
	catalogDirectors = []string{"Steven Spielberg", "Spielberg, Steven", "Ridley Scott", "Michael Mann"}
)

// RandomCatalog generates a small movie catalog (<catalog><movie>…) shaped
// like a decoded source: deep-interned as xmlcodec.Decode leaves it, so
// equal leaves — and the record that now and then occurs twice — are one
// shared node. The year, the key field of the Oracle's year rule, is in
// turn present, absent, duplicated (two certain <year> children) or under a
// choice point; in the last three cases the movie has no certain year.
// Folding a few catalogs with the integrator gives documents whose movies
// sit under choice points of their own. The same rng seed yields the same
// catalog.
func RandomCatalog(rng *rand.Rand, movies int) *pxml.Tree {
	pick := func(pool []string) string { return pool[rng.Intn(len(pool))] }
	year := func() *pxml.Node { return pxml.NewLeaf("year", pick(catalogYears)) }
	kids := make([]*pxml.Node, 0, movies)
	for len(kids) < movies {
		if len(kids) > 0 && rng.Intn(8) == 0 {
			kids = append(kids, kids[rng.Intn(len(kids))])
			continue
		}
		fields := []*pxml.Node{pxml.Certain(pxml.NewLeaf("title", pick(catalogTitles)))}
		switch rng.Intn(6) {
		case 0: // absent
		case 1: // duplicated
			fields = append(fields, pxml.Certain(year()), pxml.Certain(year()))
		case 2: // under a choice point
			fields = append(fields, pxml.NewProb(pxml.NewPoss(0.5, year()), pxml.NewPoss(0.5, year())))
		default:
			fields = append(fields, pxml.Certain(year()))
		}
		for g := rng.Intn(3); g > 0; g-- {
			fields = append(fields, pxml.Certain(pxml.NewLeaf("genre", pick(catalogGenres))))
		}
		fields = append(fields, pxml.Certain(pxml.NewLeaf("director", pick(catalogDirectors))))
		kids = append(kids, pxml.Certain(pxml.NewElem("movie", "", fields...)))
	}
	return pxml.InternTree(pxml.CertainTree(pxml.NewElem("catalog", "", kids...)))
}
