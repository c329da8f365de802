package queryindex_test

import (
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/oracle"
	"repro/internal/pxml"
	"repro/internal/pxmltest"
	"repro/internal/query"
	"repro/internal/queryindex"
	"repro/internal/xmlcodec"
)

// elementTotals sums a summary's per-tag occurrence counts and takes the
// largest subtree world count over all elements, as the planner does.
func elementTotals(sum *pxml.Summary) (elements int64, maxWorlds *big.Int) {
	maxWorlds = big.NewInt(1)
	for _, st := range sum.Tags.Stats() {
		elements += st.Count
		if st.MaxWorlds.Cmp(maxWorlds) > 0 {
			maxWorlds = st.MaxWorlds
		}
	}
	return elements, maxWorlds
}

func TestBuildFig2(t *testing.T) {
	tr := pxmltest.Fig2Tree()
	sum := queryindex.Build(tr)

	if sum != tr.Summary() {
		t.Fatal("Build is not the tree's own summary")
	}
	if sum.Worlds.Cmp(tr.WorldCount()) != 0 {
		t.Fatalf("summary worlds %s != tree worlds %s", sum.Worlds, tr.WorldCount())
	}
	for _, tag := range []string{"addressbook", "person", "nm", "tel"} {
		if !sum.Tags.Has(tag) {
			t.Fatalf("missing tag %q (have %v)", tag, sum.Tags.Tags())
		}
	}
	if sum.Tags.Has("movie") {
		t.Fatalf("summary claims absent tag")
	}

	book, _ := sum.Tags.Stat("addressbook")
	if book.Count != 1 {
		t.Fatalf("addressbook stat = %+v", book)
	}
	// The addressbook subtree spans all 3 worlds; its world bound must
	// reflect that.
	if book.MaxWorlds.Cmp(big.NewInt(3)) != 0 {
		t.Fatalf("addressbook MaxWorlds = %s, want 3", book.MaxWorlds)
	}
	// One merged person under one alternative, two separate ones under the
	// other; the merged one spans the two worlds of its phone choice.
	person, _ := sum.Tags.Stat("person")
	if person.Count != 3 || person.MaxWorlds.Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("person stat = %+v, want 3 occurrences spanning at most 2 worlds", person)
	}
	elements, maxWorlds := elementTotals(sum)
	if maxWorlds.Cmp(big.NewInt(3)) != 0 {
		t.Fatalf("largest element subtree spans %s worlds, want 3", maxWorlds)
	}
	if elements != 11 || sum.Tags.Len() != 4 { // 1 addressbook, 3 persons, 3 nm, 4 tel
		t.Fatalf("elements=%d tags=%d, want 11 and 4", elements, sum.Tags.Len())
	}
}

// TestBuildSharedSubtreesCountedOnce: a node shared by several alternatives
// is summarized once — its per-subtree results are cached on it — and
// counts once per occurrence.
func TestBuildSharedSubtreesCountedOnce(t *testing.T) {
	leaf := pxml.NewLeaf("tel", "1111")
	person := pxml.NewElem("person", "", pxml.Certain(leaf))
	// The same person node appears under two alternatives.
	book := pxml.NewElem("addressbook", "",
		pxml.NewProb(
			pxml.NewPoss(0.5, person),
			pxml.NewPoss(0.5, person, person),
		),
	)
	tr := pxml.CertainTree(book)
	sum := queryindex.Build(tr)
	st, _ := sum.Tags.Stat("person")
	if st.Count != 3 {
		t.Fatalf("shared person has %d occurrences, want one per path: 3", st.Count)
	}
	checkAgainstReference(t, "shared", tr, sum)
	// A second document around the same person reads its cached summary.
	personSum := person.Summary()
	again := pxml.CertainTree(pxml.NewElem("addressbook", "", pxml.Certain(person)))
	checkAgainstReference(t, "carried over", again, queryindex.Build(again))
	if person.Summary() != personSum {
		t.Fatalf("the carried-over subtree was summarized again")
	}
}

func TestBuildRandomTreesConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		tr := pxmltest.RandomTree(rng, pxmltest.DefaultGenConfig())
		sum := queryindex.Build(tr)
		checkAgainstReference(t, "random", tr, sum)
		var total int64
		for _, tag := range sum.Tags.Tags() {
			st, _ := sum.Tags.Stat(tag)
			total += st.Count
		}
		if elements, _ := elementTotals(sum); total != elements {
			t.Fatalf("iter %d: per-tag occurrences %d != elements %d", i, total, elements)
		}
	}
}

// reference is what the planner reads off the summary, computed from
// scratch: one walk over every occurrence of every node that counts worlds
// and occurrences itself and reads nothing cached on a node. Same
// definitions as the summary — occurrences are counted per path.
type reference struct {
	worlds        *big.Int
	tags          map[string]pxml.TagStat
	elements      int64
	maxElemWorlds *big.Int
}

func buildReference(tr *pxml.Tree) reference {
	ref := reference{tags: map[string]pxml.TagStat{}, maxElemWorlds: big.NewInt(1)}
	var worlds func(n *pxml.Node) *big.Int
	worlds = func(n *pxml.Node) *big.Int {
		w := big.NewInt(1)
		if n.Kind() == pxml.KindProb {
			w.SetInt64(0)
		}
		for _, k := range n.Children() {
			if n.Kind() == pxml.KindProb {
				w.Add(w, worlds(k)) // alternatives exclude each other
			} else {
				w.Mul(w, worlds(k)) // children are independent
			}
		}
		if n.Kind() == pxml.KindElem {
			st, ok := ref.tags[n.Tag()]
			if !ok || w.Cmp(st.MaxWorlds) > 0 {
				st.MaxWorlds = w
			}
			st.Count++
			if !n.IsLeaf() {
				st.Inner++
			}
			ref.tags[n.Tag()] = st
			ref.elements++
			if w.Cmp(ref.maxElemWorlds) > 0 {
				ref.maxElemWorlds = w
			}
		}
		return w
	}
	ref.worlds = worlds(tr.Root())
	return ref
}

// checkAgainstReference compares a document's summary with the reference
// walk of the document field for field — what the planner reads (worlds,
// the world count a plan reports, tags, occurrences, world bounds) and
// what the query engine's literal gate reads (the per-tag count of
// elements with children, and text fingerprints without a false
// negative) — and the one-walk size figures of /stats with the separate
// walks.
func checkAgainstReference(t *testing.T, label string, tr *pxml.Tree, sum *pxml.Summary) {
	t.Helper()
	ref := buildReference(tr)
	if sum != tr.Summary() {
		t.Fatalf("%s: not the tree's own summary", label)
	}
	if sum.Worlds.Cmp(ref.worlds) != 0 {
		t.Fatalf("%s: summary worlds %s, reference %s", label, sum.Worlds, ref.worlds)
	}
	res, err := query.Eval(tr, query.MustCompile("//nosuchtag"), query.Options{})
	if err != nil || res.Plan.EstimatedWorlds != ref.worlds.String() {
		t.Fatalf("%s: a plan reports %q worlds (%v), reference %s", label, res.Plan.EstimatedWorlds, err, ref.worlds)
	}
	elements, maxWorlds := elementTotals(sum)
	if elements != ref.elements || sum.Tags.Len() != len(ref.tags) {
		t.Fatalf("%s: summary has %d elements of %d tags, reference %d of %d", label, elements, sum.Tags.Len(), ref.elements, len(ref.tags))
	}
	if maxWorlds.Cmp(ref.maxElemWorlds) != 0 {
		t.Fatalf("%s: largest element subtree spans %s worlds, reference %s", label, maxWorlds, ref.maxElemWorlds)
	}
	for tag, want := range ref.tags {
		got, ok := sum.Tags.Stat(tag)
		if !ok || !sum.Tags.Has(tag) {
			t.Fatalf("%s: summary misses tag %q", label, tag)
		}
		if got.Count != want.Count || got.MaxWorlds.Cmp(want.MaxWorlds) != 0 || got.Inner != want.Inner {
			t.Fatalf("%s: <%s> summary %d occurrences (%d with children), max %s worlds; reference %d (%d), %s",
				label, tag, got.Count, got.Inner, got.MaxWorlds, want.Count, want.Inner, want.MaxWorlds)
		}
	}
	if s := pxmltest.UncoveredText(tr.Root()); s != "" {
		t.Fatalf("%s: %s", label, s)
	}
	if diff := pxmltest.StatsWalkMismatch(tr); diff != "" {
		t.Fatalf("%s: CollectStats: %s", label, diff)
	}
}

// TestBuildOnCarriedOverNodesMatchesReference drives databases through
// random integrate → reject-feedback → replace sequences. Every document
// after the first is built around nodes of its predecessor, which hold
// cached per-subtree results (spliced children, interned leaves, a record
// that occurs twice in a source as one shared node); the summary each
// commit publishes must equal the walk that reads no cache.
func TestBuildOnCarriedOverNodesMatchesReference(t *testing.T) {
	var integrated, rejected, replaced int
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db, err := core.Open(pxml.CertainTree(pxml.NewElem("catalog", "")), core.Config{
			Schema: datagen.MovieDTD(),
			Rules:  oracle.SetGenreTitleYear.Rules(),
		})
		if err != nil {
			t.Fatal(err)
		}
		check := func(step string) {
			t.Helper()
			checkAgainstReference(t, step, db.Tree(), db.Index())
		}
		for step := 0; step < 8; step++ {
			switch op := rng.Intn(5); {
			case op < 3:
				if _, err := db.IntegrateTree(pxmltest.RandomCatalog(rng, 2+rng.Intn(5))); err != nil {
					continue // an unintegrable source leaves the database as it was
				}
				integrated++
				check("integrate")
			case op == 3:
				res, err := db.Query("//movie/title")
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range res.Answers {
					if a.P < 0.999 {
						if _, err := db.Feedback("//movie/title", a.Value, false); err == nil {
							rejected++
							check("feedback")
						}
						break
					}
				}
			default:
				// The document as a client would post it back: decoded
				// afresh, so no node of it carries a summary.
				var buf strings.Builder
				if err := db.ExportXML(&buf, xmlcodec.EncodeOptions{}); err != nil {
					t.Fatal(err)
				}
				doc, err := xmlcodec.DecodeString(buf.String())
				if err != nil {
					t.Fatal(err)
				}
				if err := db.ReplaceTree(doc); err != nil {
					t.Fatal(err)
				}
				replaced++
				check("replace")
			}
		}
	}
	if integrated < 40 || rejected < 5 || replaced < 10 {
		t.Fatalf("sequences too thin: %d integrations, %d rejections, %d replacements", integrated, rejected, replaced)
	}
}
