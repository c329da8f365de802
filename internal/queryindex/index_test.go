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
	"repro/internal/queryindex"
	"repro/internal/xmlcodec"
)

func TestBuildFig2(t *testing.T) {
	tr := pxmltest.Fig2Tree()
	ix := queryindex.Build(tr)

	if ix.Digest() != tr.Digest() {
		t.Fatalf("index digest %#x != tree digest %#x", ix.Digest(), tr.Digest())
	}
	if ix.Worlds().Cmp(tr.WorldCount()) != 0 {
		t.Fatalf("index worlds %s != tree worlds %s", ix.Worlds(), tr.WorldCount())
	}
	for _, tag := range []string{"addressbook", "person", "nm", "tel"} {
		if !ix.HasTag(tag) {
			t.Fatalf("missing tag %q (have %v)", tag, ix.Tags())
		}
	}
	if ix.HasTag("movie") {
		t.Fatalf("index claims absent tag")
	}

	book, _ := ix.Tag("addressbook")
	if book.Occurrences != 1 {
		t.Fatalf("addressbook info = %+v", book)
	}
	// The addressbook subtree spans all 3 worlds; its world bound must
	// reflect that.
	if book.MaxSubtreeWorlds.Cmp(big.NewInt(3)) != 0 {
		t.Fatalf("addressbook MaxSubtreeWorlds = %s, want 3", book.MaxSubtreeWorlds)
	}
	// One merged person under one alternative, two separate ones under the
	// other; the merged one spans the two worlds of its phone choice.
	person, _ := ix.Tag("person")
	if person.Occurrences != 3 || person.MaxSubtreeWorlds.Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("person info = %+v, want 3 occurrences spanning at most 2 worlds", person)
	}
	if ix.MaxElementWorlds().Cmp(big.NewInt(3)) != 0 {
		t.Fatalf("MaxElementWorlds = %s, want 3", ix.MaxElementWorlds())
	}
	if ix.Elements() != 11 || ix.NumTags() != 4 { // 1 addressbook, 3 persons, 3 nm, 4 tel
		t.Fatalf("elements=%d tags=%d, want 11 and 4", ix.Elements(), ix.NumTags())
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
	ix := queryindex.Build(tr)
	info, _ := ix.Tag("person")
	if info.Occurrences != 3 {
		t.Fatalf("shared person has %d occurrences, want one per path: 3", info.Occurrences)
	}
	checkAgainstReference(t, "shared", tr, ix)
	// A second document around the same person reads its cached summary.
	sum := person.Summary()
	again := pxml.CertainTree(pxml.NewElem("addressbook", "", pxml.Certain(person)))
	checkAgainstReference(t, "carried over", again, queryindex.Build(again))
	if person.Summary() != sum {
		t.Fatalf("the carried-over subtree was summarized again")
	}
}

func TestBuildRandomTreesConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		tr := pxmltest.RandomTree(rng, pxmltest.DefaultGenConfig())
		ix := queryindex.Build(tr)
		checkAgainstReference(t, "random", tr, ix)
		total := 0
		for _, tag := range ix.Tags() {
			info, _ := ix.Tag(tag)
			total += info.Occurrences
		}
		if total != ix.Elements() {
			t.Fatalf("iter %d: per-tag occurrences %d != elements %d", i, total, ix.Elements())
		}
	}
}

// reference is the index computed from scratch: one walk over every
// occurrence of every node that counts worlds and occurrences itself and
// reads nothing cached on a node. Same definitions as the shipped index —
// occurrences are counted per path.
type reference struct {
	worlds        *big.Int
	tags          map[string]queryindex.TagInfo
	inner         map[string]int64 // occurrences that have children
	elements      int
	maxElemWorlds *big.Int
}

func buildReference(tr *pxml.Tree) reference {
	ref := reference{tags: map[string]queryindex.TagInfo{}, inner: map[string]int64{}, maxElemWorlds: big.NewInt(1)}
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
			info, ok := ref.tags[n.Tag()]
			if !ok || w.Cmp(info.MaxSubtreeWorlds) > 0 {
				info.MaxSubtreeWorlds = w
			}
			info.Occurrences++
			ref.tags[n.Tag()] = info
			if !n.IsLeaf() {
				ref.inner[n.Tag()]++
			}
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

// checkAgainstReference compares an index with the reference walk of its
// document field for field, and with it what the query engine's literal
// gate reads off the same cached summaries: the per-tag count of elements
// with children, and text fingerprints without a false negative; and the
// one-walk size figures of /stats with the separate walks.
func checkAgainstReference(t *testing.T, label string, tr *pxml.Tree, ix *queryindex.Index) {
	t.Helper()
	ref := buildReference(tr)
	if ix.Digest() != pxml.Hash(tr.Root()) {
		t.Fatalf("%s: index digest %#x, the tree hashes to %#x", label, ix.Digest(), pxml.Hash(tr.Root()))
	}
	if ix.Worlds().Cmp(ref.worlds) != 0 || ix.WorldsString() != ref.worlds.String() {
		t.Fatalf("%s: index worlds %s (%s), reference %s", label, ix.Worlds(), ix.WorldsString(), ref.worlds)
	}
	if ix.Elements() != ref.elements || ix.NumTags() != len(ref.tags) {
		t.Fatalf("%s: index has %d elements of %d tags, reference %d of %d", label, ix.Elements(), ix.NumTags(), ref.elements, len(ref.tags))
	}
	if ix.MaxElementWorlds().Cmp(ref.maxElemWorlds) != 0 {
		t.Fatalf("%s: index MaxElementWorlds %s, reference %s", label, ix.MaxElementWorlds(), ref.maxElemWorlds)
	}
	for tag, want := range ref.tags {
		got, ok := ix.Tag(tag)
		if !ok || !ix.HasTag(tag) {
			t.Fatalf("%s: index misses tag %q", label, tag)
		}
		if got.Occurrences != want.Occurrences || got.MaxSubtreeWorlds.Cmp(want.MaxSubtreeWorlds) != 0 {
			t.Fatalf("%s: <%s> index %d occurrences, max %s worlds; reference %d, %s",
				label, tag, got.Occurrences, got.MaxSubtreeWorlds, want.Occurrences, want.MaxSubtreeWorlds)
		}
		if st, _ := tr.Summary().Tags.Stat(tag); st.Inner != ref.inner[tag] {
			t.Fatalf("%s: <%s> summary counts %d occurrences with children, reference %d", label, tag, st.Inner, ref.inner[tag])
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
// that occurs twice in a source as one shared node); Build on it must equal
// the walk that reads no cache.
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
			tr := db.Tree()
			checkAgainstReference(t, step+": installed index", tr, db.Index())
			checkAgainstReference(t, step+": fresh build", tr, queryindex.Build(tr))
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
