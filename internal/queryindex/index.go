// Package queryindex holds the per-tree index the query planner consults:
// which tags exist, how many worlds the largest subtree of each tag spans,
// how many element occurrences each tag has. An Index is taken when a
// document is installed in the database (alongside the copy-on-write tree
// swap) and then read on every query.
//
// Everything in it is a union, a maximum or a sum over subtrees, so it is
// read off the document root's cached pxml.Summary: Build walks only the
// nodes that have no summary yet, and the subtrees an integration carried
// over verbatim contribute theirs untouched.
//
// Indexes are immutable after Build and safe for concurrent use. They are
// tied to a document by its structural digest: a planner handed an index
// whose Digest differs from the tree's must ignore it.
package queryindex

import (
	"math/big"
	"sync"
	"time"

	"repro/internal/pxml"
)

// TagInfo aggregates everything the index knows about one element tag.
type TagInfo struct {
	// Occurrences is the number of occurrences of the tag, one per path
	// from the root to an element carrying it: an element shared by k
	// alternatives of a choice point counts k times (a logical count, as
	// Tree.NodeCount is — not the number of distinct nodes, which does
	// not compose over shared subtrees and would need a walk of the whole
	// document per build). It feeds only the planner's pruned-fraction
	// hint and /stats.
	Occurrences int
	// MaxSubtreeWorlds is the largest possible-world count of any
	// occurrence's subtree — the planner's upper bound on the local
	// enumeration cost of anchoring a query at this tag. Read-only.
	MaxSubtreeWorlds *big.Int
}

// Index is an immutable per-tree query index.
type Index struct {
	digest        uint64
	worlds        *big.Int
	tags          pxml.TagSet
	elements      int
	maxElemWorlds *big.Int
	buildTime     time.Duration

	// worldsText is worlds in decimal, formatted on first use: every plan
	// reports it, and a document's count can run to a hundred digits.
	worldsOnce sync.Once
	worldsText string
}

// Build constructs the index for a document. Cost is proportional to the
// nodes of the document that carry no cached summary yet, and it leaves
// every node summarized, so queries arriving after the swap find every
// per-node summary already cached.
func Build(t *pxml.Tree) *Index {
	start := time.Now()
	sum := t.Summary()
	ix := &Index{digest: t.Digest(), worlds: sum.Worlds, tags: sum.Tags, maxElemWorlds: big.NewInt(1)}
	for _, st := range sum.Tags.Stats() {
		ix.elements += int(st.Count)
		if st.MaxWorlds.Cmp(ix.maxElemWorlds) > 0 {
			ix.maxElemWorlds = st.MaxWorlds
		}
	}
	ix.buildTime = time.Since(start)
	return ix
}

// Digest returns the structural digest of the indexed document.
func (ix *Index) Digest() uint64 { return ix.digest }

// Worlds returns the document's possible-world count (a private copy).
func (ix *Index) Worlds() *big.Int { return new(big.Int).Set(ix.worlds) }

// WorldsString returns the document's possible-world count in decimal. It
// is formatted once per index, on first use.
func (ix *Index) WorldsString() string {
	ix.worldsOnce.Do(func() { ix.worldsText = ix.worlds.String() })
	return ix.worldsText
}

// HasTag reports whether any element with the tag occurs in the document.
func (ix *Index) HasTag(tag string) bool { return ix.tags.Has(tag) }

// Tag returns the aggregate information for a tag. The TagInfo's
// MaxSubtreeWorlds must be treated as read-only.
func (ix *Index) Tag(tag string) (TagInfo, bool) {
	st, ok := ix.tags.Stat(tag)
	return TagInfo{Occurrences: int(st.Count), MaxSubtreeWorlds: st.MaxWorlds}, ok
}

// Tags returns all indexed tags in sorted order.
func (ix *Index) Tags() []string { return ix.tags.Tags() }

// NumTags returns the number of distinct element tags.
func (ix *Index) NumTags() int { return ix.tags.Len() }

// Elements returns the number of element occurrences in the document: the
// sum of every tag's Occurrences, a logical count like them.
func (ix *Index) Elements() int { return ix.elements }

// MaxElementWorlds returns the largest subtree world count over all
// elements — the planner's anchor bound for wildcard steps. Read-only.
func (ix *Index) MaxElementWorlds() *big.Int { return ix.maxElemWorlds }

// BuildDuration returns how long Build took.
func (ix *Index) BuildDuration() time.Duration { return ix.buildTime }
