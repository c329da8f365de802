package pxml

import (
	"math/big"
	"sync"
	"testing"
)

func summaryFixture() *Tree {
	movie := func(title, year string) *Node {
		return NewElem("movie", "",
			Certain(NewLeaf("title", title)),
			Certain(NewLeaf("year", year)),
		)
	}
	cat := NewElem("catalog", "",
		Certain(movie("Jaws", "1975")),
		NewProb(
			NewPoss(0.5, movie("Jaws 2", "1978")),
			NewPoss(0.5, movie("Jaws II", "1978")),
		),
	)
	return CertainTree(cat)
}

func TestSummaryDigestMatchesHash(t *testing.T) {
	tr := summaryFixture()
	if got, want := tr.Digest(), Hash(tr.Root()); got != want {
		t.Fatalf("tree digest %#x != Hash %#x", got, want)
	}
	// Equal documents built independently share the digest.
	other := summaryFixture()
	if tr.Digest() != other.Digest() {
		t.Fatalf("equal trees with different digests")
	}
	// A different document has a different digest.
	changed := CertainTree(NewElem("catalog", "", Certain(NewLeaf("title", "Alien"))))
	if changed.Digest() == tr.Digest() {
		t.Fatalf("different trees share a digest")
	}
}

func TestSummaryWorldsMatchesWorldCount(t *testing.T) {
	tr := summaryFixture()
	if got := tr.WorldCount(); got.Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("world count = %s, want 2", got)
	}
	// The returned count is a private copy: mutating it must not corrupt
	// the cached summary.
	tr.WorldCount().SetInt64(99)
	if got := tr.WorldCount(); got.Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("world count after caller mutation = %s, want 2", got)
	}
}

func TestSummaryTags(t *testing.T) {
	tr := summaryFixture()
	tags := tr.Summary().Tags
	for _, want := range []string{"catalog", "movie", "title", "year"} {
		if !tags.Has(want) {
			t.Fatalf("tag set %v missing %q", tags.Tags(), want)
		}
	}
	if tags.Has("director") {
		t.Fatalf("tag set claims absent tag")
	}
	if tags.Len() != 4 {
		t.Fatalf("tag set len = %d, want 4", tags.Len())
	}
	// A leaf's set contains exactly its own tag.
	leaf := NewLeaf("title", "x")
	if s := leaf.Summary().Tags; s.Len() != 1 || !s.Has("title") {
		t.Fatalf("leaf tag set = %v", s.Tags())
	}
}

func TestSummaryConcurrent(t *testing.T) {
	tr := summaryFixture()
	var wg sync.WaitGroup
	digests := make([]uint64, 8)
	for i := range digests {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			digests[i] = tr.Digest()
		}(i)
	}
	wg.Wait()
	for _, d := range digests {
		if d != digests[0] {
			t.Fatalf("racing summary computations disagree")
		}
	}
}
