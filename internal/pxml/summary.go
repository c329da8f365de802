package pxml

import (
	"math/big"
	"slices"
)

// TagSet is the immutable set of element tags occurring in a subtree, with
// what the subtree holds of each. The zero value is the empty set. Sets
// share their storage freely between node summaries, so they must never be
// mutated after construction.
type TagSet struct {
	stats []TagStat // sorted by Tag
}

// TagStat aggregates the elements of one tag at or below a node. Every
// field composes over children (two sums and a maximum), which is what lets
// a document built around carried-over subtrees take them from those
// subtrees' cached summaries without walking them again.
type TagStat struct {
	Tag string
	// Count is the number of occurrences of the tag: one per path from the
	// summarized node down to an element carrying it. Like Summary.Nodes it
	// is a logical count — an element shared by k alternatives counts k
	// times — not a count of distinct nodes.
	Count int64
	// Inner is the number of those occurrences that have children. Where it
	// is 0 every element of the tag is a leaf, whose string value in every
	// possible world is its own text — which Summary.TextBloom covers.
	Inner int64
	// MaxWorlds is the largest possible-world count of the subtree of any
	// element with the tag. Read-only.
	MaxWorlds *big.Int
}

// Has reports whether tag is in the set.
func (s TagSet) Has(tag string) bool {
	_, ok := findTag(s.stats, tag)
	return ok
}

// Len returns the number of tags in the set.
func (s TagSet) Len() int { return len(s.stats) }

// Tags returns the tags in sorted order.
func (s TagSet) Tags() []string {
	out := make([]string, len(s.stats))
	for i, st := range s.stats {
		out[i] = st.Tag
	}
	return out
}

// Stats returns the per-tag aggregates, sorted by tag. Read-only.
func (s TagSet) Stats() []TagStat { return s.stats }

// Stat returns the aggregates of one tag; ok is false when it is not in the
// set.
func (s TagSet) Stat(tag string) (TagStat, bool) {
	i, ok := findTag(s.stats, tag)
	if !ok {
		return TagStat{}, false
	}
	return s.stats[i], true
}

// Summary is the cached static summary of one subtree: everything the
// query planner needs to reason about the subtree without walking it.
// Summaries are computed once per node (lazily, bottom-up) and shared;
// all fields must be treated as read-only. In particular Worlds is a
// shared *big.Int that callers must not mutate.
type Summary struct {
	// Worlds is the number of possible worlds of the subtree. Read-only.
	// A one-world subtree's count is always one shared value (OneWorld).
	Worlds *big.Int
	// Tags is the set of element tags occurring at or below this node
	// (including the node's own tag for elements), with each tag's
	// occurrence count and world bound. Read-only.
	Tags TagSet
	// TextBloom is a 256-bit Bloom fingerprint of the element texts at or
	// below this node (TextBloomBits per text, OR-combined). A query
	// engine may conclude that a text t does NOT occur in the subtree
	// when TextBloom does not cover TextBloomBits(t); the converse (bits
	// present) proves nothing.
	TextBloom Bloom
	// KidBlooms is the column of the children's fingerprints, entry i
	// being Children()[i].Summary().TextBloom, kept where the node has two
	// or more children (nil otherwise): a query engine choosing which
	// children to descend into reads them from one contiguous array
	// instead of from each child's summary. Read-only.
	KidBlooms []Bloom
	// Kinds is the logical node count of the subtree per Kind, this node
	// included: a subtree shared by several parents counts once per
	// occurrence (the paper's #nodes measure, see Tree.NodeCount).
	Kinds [3]int64
	// Depth is the number of layers from this node down to its deepest
	// leaf, both included.
	Depth int
}

// Nodes is the logical node count of the subtree, all kinds together.
func (s *Summary) Nodes() int64 { return s.Kinds[KindProb] + s.Kinds[KindPoss] + s.Kinds[KindElem] }

// OneWorld reports whether the subtree has exactly one possible world, and
// so holds no choice point.
func (s *Summary) OneWorld() bool { return s.Worlds == bigOne }

// Bloom is a 256-bit Bloom fingerprint of a set of texts.
type Bloom [4]uint64

// Covers reports whether every bit of m is set in b.
func (b Bloom) Covers(m Bloom) bool {
	return b[0]&m[0] == m[0] && b[1]&m[1] == m[1] && b[2]&m[2] == m[2] && b[3]&m[3] == m[3]
}

// Or returns the union of b and m.
func (b Bloom) Or(m Bloom) Bloom {
	return Bloom{b[0] | m[0], b[1] | m[1], b[2] | m[2], b[3] | m[3]}
}

// TextBloomBits returns the Bloom mask of one text value: two bits taken
// from distant parts of one FNV hash, each modulo 256, so a subtree
// fingerprint with few texts rarely false-positives on an absent value.
func TextBloomBits(s string) Bloom {
	h := fnvString(fnvOffset, s)
	var b Bloom
	for _, bit := range [2]uint64{h & 255, (h >> 32) & 255} {
		b[bit>>6] |= 1 << (bit & 63)
	}
	return b
}

var bigOne = big.NewInt(1)

// Summary returns the subtree's static summary, computing and caching it
// (and its descendants' summaries) on first use. It is safe for
// concurrent use: racing computations produce identical values and the
// last store wins harmlessly.
func (n *Node) Summary() *Summary {
	if s := n.summary.Load(); s != nil {
		return s
	}
	return computeSummary(n)
}

func computeSummary(n *Node) *Summary {
	if s := n.summary.Load(); s != nil {
		return s
	}
	var buf [8]*Summary
	kidSums := buf[:0]
	for _, k := range n.kids {
		kidSums = append(kidSums, computeSummary(k))
	}
	s := &Summary{Worlds: summaryWorlds(n, kidSums)}
	s.Tags = summaryTags(n, kidSums, s.Worlds)
	if n.text != "" {
		s.TextBloom = TextBloomBits(n.text)
	}
	s.Kinds[n.kind] = 1
	if len(kidSums) > 1 {
		s.KidBlooms = make([]Bloom, len(kidSums))
		for i, k := range kidSums {
			s.KidBlooms[i] = k.TextBloom
		}
	}
	for _, k := range kidSums {
		s.TextBloom = s.TextBloom.Or(k.TextBloom)
		for i, c := range k.Kinds {
			s.Kinds[i] += c
		}
		s.Depth = max(s.Depth, k.Depth)
	}
	s.Depth++
	n.summary.Store(s)
	return s
}

// summaryTags merges the children's tag sets and, for an element, its own
// occurrence (whose subtree spans worlds worlds). A wrapper node shares its
// only child's set, so long chains of them hold a single one. The merge runs
// in a stack buffer and its result is copied once into a slice of exactly
// its size: one allocation per set, none for a set that is empty.
func summaryTags(n *Node, kids []*Summary, worlds *big.Int) TagSet {
	if n.kind != KindElem && len(kids) == 1 {
		return kids[0].Tags
	}
	var buf [32]TagStat
	out := buf[:0]
	if n.kind == KindElem {
		own := TagStat{Tag: n.tag, Count: 1, MaxWorlds: worlds}
		if len(n.kids) > 0 {
			own.Inner = 1
		}
		out = append(out, own)
	}
	for _, k := range kids {
		for _, st := range k.Tags.stats {
			i, ok := findTag(out, st.Tag)
			if !ok {
				out = slices.Insert(out, i, st)
				continue
			}
			out[i].Count += st.Count
			out[i].Inner += st.Inner
			if st.MaxWorlds.Cmp(out[i].MaxWorlds) > 0 {
				out[i].MaxWorlds = st.MaxWorlds
			}
		}
	}
	if len(out) == 0 {
		return TagSet{}
	}
	stats := make([]TagStat, len(out))
	copy(stats, out)
	return TagSet{stats: stats}
}

// findTag returns the position of tag in the sorted stats, or where it
// would be inserted.
func findTag(stats []TagStat, tag string) (int, bool) {
	lo, hi := 0, len(stats)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if stats[m].Tag < tag {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(stats) && stats[lo].Tag == tag
}

// summaryWorlds computes the world count from child summaries, sharing
// child big.Ints where the recurrence is the identity and bigOne wherever
// the count is one.
func summaryWorlds(n *Node, kids []*Summary) *big.Int {
	switch n.kind {
	case KindProb:
		// Alternatives are mutually exclusive: counts add.
		if len(kids) == 1 {
			return kids[0].Worlds
		}
		c := new(big.Int)
		for _, k := range kids {
			c.Add(c, k.Worlds)
		}
		return c
	default:
		// Children are independent: counts multiply.
		c := bigOne
		for _, k := range kids {
			switch {
			case k.OneWorld():
			case c == bigOne:
				c = k.Worlds
			default:
				c = new(big.Int).Mul(c, k.Worlds)
			}
		}
		return c
	}
}

// Summary returns the cached static summary of the document root.
func (t *Tree) Summary() *Summary { return t.root.Summary() }

// Digest returns the structural digest of the whole document. Equal trees
// (in the sense of Equal) have equal digests, so the digest identifies the
// document content — the key the result cache and index invalidation use.
func (t *Tree) Digest() uint64 { return t.root.digest }

// DeriveSummary gives n, an element built mostly of base's children, the
// summary base's implies, without merging the children they share: from[i]
// is the position among base's children of n's i-th child, -1 for a new one
// (a position whose child is not n's, or is claimed twice, counts as new).
// The sums — Kinds and each tag's Count and Inner — are base's, less the
// children base lost and plus those n gained; Worlds is divided and
// multiplied by theirs exactly; the Bloom fingerprint is the OR of the
// children's column, whose shared entries are copied from base's. A maximum
// cannot be taken back: when a lost child held a tag's MaxWorlds or the
// Depth maximum, and no gained one reaches it, every child is merged as
// Summary would. It returns how many child summaries it merged and whether
// that was all of them. It does nothing when n has a summary already, base
// has none, or from does not fit; n's is then computed on first use.
func DeriveSummary(n, base *Node, from []int) (merged int, full bool) {
	bs := base.summary.Load()
	if n.kind != KindElem || base.kind != KindElem || n.tag != base.tag || bs == nil || len(from) != len(n.kids) || n.summary.Load() != nil {
		return 0, false
	}
	kept := make([]bool, len(base.kids))
	blooms := make([]Bloom, len(n.kids))
	var gained, lost []*Summary
	for i, k := range n.kids {
		if b := from[i]; b >= 0 && b < len(base.kids) && base.kids[b] == k && !kept[b] {
			kept[b] = true
			if bs.KidBlooms != nil {
				blooms[i] = bs.KidBlooms[b]
			} else {
				blooms[i] = computeSummary(k).TextBloom
			}
		} else {
			s := computeSummary(k)
			gained = append(gained, s)
			blooms[i] = s.TextBloom
		}
	}
	for b, ok := range kept {
		if !ok {
			lost = append(lost, computeSummary(base.kids[b]))
		}
	}
	s, ok := derive(n, bs, len(base.kids) > 0, lost, gained)
	if !ok {
		computeSummary(n)
		return len(n.kids), true
	}
	if len(blooms) > 1 {
		s.KidBlooms = blooms
	}
	if n.text != "" {
		s.TextBloom = TextBloomBits(n.text)
	}
	for _, b := range blooms {
		s.TextBloom = s.TextBloom.Or(b)
	}
	n.summary.Store(s)
	return len(lost) + len(gained), false
}

// derive is DeriveSummary's arithmetic, the fingerprints aside: base's
// summary bs (of an element with children when inner) less the lost
// children's, plus the gained ones'. It reports false when a lost child held
// a maximum that no gained child reaches.
func derive(n *Node, bs *Summary, inner bool, lost, gained []*Summary) (*Summary, bool) {
	s := &Summary{Kinds: bs.Kinds, Depth: bs.Depth}
	for _, k := range lost {
		for i, c := range k.Kinds {
			s.Kinds[i] -= c
		}
	}
	depth := 0 // the children's deepest, among the gained
	for _, k := range gained {
		for i, c := range k.Kinds {
			s.Kinds[i] += c
		}
		depth = max(depth, k.Depth)
	}
	for _, k := range lost {
		if k.Depth+1 == bs.Depth && depth+1 < bs.Depth {
			return nil, false
		}
	}
	s.Depth = max(bs.Depth, depth+1)

	// Children are independent: the count is the product of theirs.
	s.Worlds = bs.Worlds
	num, den := bigOne, bigOne
	for _, k := range gained {
		if !k.OneWorld() {
			num = new(big.Int).Mul(num, k.Worlds)
		}
	}
	for _, k := range lost {
		if !k.OneWorld() {
			den = new(big.Int).Mul(den, k.Worlds)
		}
	}
	if num != bigOne || den != bigOne {
		w := new(big.Int).Mul(bs.Worlds, num)
		w.Quo(w, den)
		if s.Worlds = w; w.Cmp(bigOne) == 0 {
			s.Worlds = bigOne
		}
	}

	// The tags: n's own occurrence spans all its worlds, the most any
	// element of its tag below it can; the others' maxima must be found
	// again among the gained children when a lost one held one.
	var buf [32]TagStat
	out := append(buf[:0], bs.Tags.stats...)
	type tie struct {
		tag string
		max *big.Int
	}
	var ties []tie
	for _, k := range lost {
		for _, st := range k.Tags.stats {
			i, _ := findTag(out, st.Tag)
			out[i].Count -= st.Count
			out[i].Inner -= st.Inner
			if st.Tag != n.tag && st.MaxWorlds.Cmp(bigOne) != 0 && st.MaxWorlds.Cmp(out[i].MaxWorlds) == 0 {
				ties = append(ties, tie{st.Tag, st.MaxWorlds})
			}
		}
	}
	for _, k := range gained {
		for _, st := range k.Tags.stats {
			i, ok := findTag(out, st.Tag)
			if !ok {
				out = slices.Insert(out, i, st)
			} else {
				out[i].Count += st.Count
				out[i].Inner += st.Inner
				if st.MaxWorlds.Cmp(out[i].MaxWorlds) > 0 {
					out[i].MaxWorlds = st.MaxWorlds
				}
			}
			ties = slices.DeleteFunc(ties, func(t tie) bool { return t.tag == st.Tag && st.MaxWorlds.Cmp(t.max) >= 0 })
		}
	}
	out = slices.DeleteFunc(out, func(st TagStat) bool { return st.Count == 0 })
	for _, t := range ties {
		if _, ok := findTag(out, t.tag); ok {
			return nil, false
		}
	}
	i, _ := findTag(out, n.tag)
	out[i].MaxWorlds = s.Worlds
	switch {
	case inner && len(n.kids) == 0:
		out[i].Inner--
	case !inner && len(n.kids) > 0:
		out[i].Inner++
	}
	s.Tags = TagSet{stats: slices.Clone(out)}
	return s, true
}
