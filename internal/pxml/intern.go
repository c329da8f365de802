package pxml

import (
	"math"
	"slices"
)

// Builder constructs probabilistic trees with hash-consing: structurally
// equal subtrees built through the same Builder are physically shared (one
// allocation, one pointer). The intern table is keyed on the structural
// digest (Hash) and verified with Equal, so sharing is exact up to
// ProbEpsilon on possibility probabilities — the same tolerance every
// other structural comparison in this package uses.
//
// Elem, Leaf, Prob and Poss look a node up before they allocate one.
//
// A Builder is scoped: typical use is one Builder per decode or per
// construction pass, discarded afterwards. Builders are not safe for
// concurrent use; the nodes they return are (they are ordinary immutable
// nodes).
type Builder struct {
	table    map[uint64]*Node   // digest -> the first canonical node with it
	overflow map[uint64][]*Node // digest -> later canonical nodes with it (collisions)
	memo     map[*Node]*Node    // deep-intern memo: original -> canonical
}

// NewBuilder creates an empty interning builder.
func NewBuilder() *Builder { return NewBuilderSize(0) }

// NewBuilderSize creates an empty interning builder whose table has room
// for about nodes distinct nodes before it grows.
func NewBuilderSize(nodes int) *Builder {
	return &Builder{table: make(map[uint64]*Node, nodes)}
}

// Size reports the number of distinct nodes interned so far.
func (b *Builder) Size() int {
	n := len(b.table)
	for _, more := range b.overflow {
		n += len(more)
	}
	return n
}

// Intern returns the canonical node structurally equal to n, registering n
// as the canonical representative if none exists yet. Children are
// compared via Equal, which short-circuits on shared pointers, so interning
// bottom-up (children first) costs O(1) comparisons per node.
func (b *Builder) Intern(n *Node) *Node {
	if n == nil {
		return nil
	}
	if c := b.lookup(n.digest, func(c *Node) bool { return c == n || Equal(c, n) }); c != nil {
		return c
	}
	if _, ok := b.table[n.digest]; ok {
		if b.overflow == nil {
			b.overflow = make(map[uint64][]*Node)
		}
		b.overflow[n.digest] = append(b.overflow[n.digest], n)
	} else {
		b.table[n.digest] = n
	}
	return n
}

// lookup returns the canonical node with digest h that match accepts, or
// nil.
func (b *Builder) lookup(h uint64, match func(*Node) bool) *Node {
	c, ok := b.table[h]
	if !ok || match(c) {
		return c
	}
	for _, c := range b.overflow[h] {
		if match(c) {
			return c
		}
	}
	return nil
}

// build returns the canonical node of the given parts. Children built by b
// are canonical, so a hit is a node with equal fields and the very same
// children, and allocates nothing. A miss copies kids, so callers may reuse
// the slice, and falls back to Intern for children not built by b.
func (b *Builder) build(kind Kind, tag, text string, prob float64, kids []*Node) *Node {
	prob = check(kind, prob, kids)
	h := digestOf(kind, tag, text, prob, kids)
	if c := b.lookup(h, func(c *Node) bool {
		return c.kind == kind && c.tag == tag && c.text == text && math.Abs(c.prob-prob) <= ProbEpsilon && slices.Equal(c.kids, kids)
	}); c != nil {
		return c
	}
	n := &Node{kind: kind, tag: tag, text: text, prob: prob, digest: h}
	if len(kids) > 0 {
		n.kids = append(make([]*Node, 0, len(kids)), kids...)
	}
	return b.Intern(n)
}

// Elem constructs an interned element node (see NewElem).
func (b *Builder) Elem(tag, text string, kids ...*Node) *Node {
	return b.build(KindElem, tag, text, 0, kids)
}

// Leaf constructs an interned leaf element (see NewLeaf).
func (b *Builder) Leaf(tag, text string) *Node {
	return b.build(KindElem, tag, text, 0, nil)
}

// Prob constructs an interned probability node (see NewProb).
func (b *Builder) Prob(poss ...*Node) *Node {
	return b.build(KindProb, "", "", 0, poss)
}

// Poss constructs an interned possibility node (see NewPoss).
func (b *Builder) Poss(p float64, elems ...*Node) *Node {
	return b.build(KindPoss, "", "", p, elems)
}

// Certain wraps elements into an interned certain choice point.
func (b *Builder) Certain(elems ...*Node) *Node {
	return b.Prob(b.Poss(1, elems...))
}

// InternNode deep-interns an existing subtree bottom-up, returning a
// canonical (maximally shared) equivalent. Nodes already canonical are
// returned unchanged; otherwise the spine above a deduplicated child is
// rebuilt.
func (b *Builder) InternNode(n *Node) *Node {
	if n == nil {
		return nil
	}
	if out, ok := b.memo[n]; ok {
		return out
	}
	if b.memo == nil {
		b.memo = make(map[*Node]*Node)
	}
	kids := n.kids
	var newKids []*Node
	for i, k := range kids {
		nk := b.InternNode(k)
		if nk != k && newKids == nil {
			newKids = make([]*Node, len(kids))
			copy(newKids, kids[:i])
		}
		if newKids != nil {
			newKids[i] = nk
		}
	}
	var out *Node
	if newKids == nil {
		out = b.Intern(n)
	} else {
		out = b.build(n.kind, n.tag, n.text, n.prob, newKids)
	}
	b.memo[n] = out
	return out
}

// InternTree deep-interns a document (see InternNode). The result is
// Equal to the input with maximal physical sharing among equal subtrees.
func (b *Builder) InternTree(t *Tree) *Tree {
	return MustTree(b.InternNode(t.root))
}

// InternTree is a convenience for one-shot deep interning with a fresh
// builder-scoped table.
func InternTree(t *Tree) *Tree {
	return NewBuilder().InternTree(t)
}
