package pxml

// Builder constructs probabilistic trees with hash-consing: structurally
// equal subtrees built through the same Builder are physically shared (one
// allocation, one pointer). The intern table is keyed on the structural
// digest (Hash) and verified with Equal, so sharing is exact up to
// ProbEpsilon on possibility probabilities — the same tolerance every
// other structural comparison in this package uses.
//
// A Builder is scoped: typical use is one Builder per decode or per
// construction pass, discarded afterwards. Builders are not safe for
// concurrent use; the nodes they return are (they are ordinary immutable
// nodes).
type Builder struct {
	table map[uint64][]*Node
	memo  map[*Node]*Node // deep-intern memo: original -> canonical
}

// NewBuilder creates an empty interning builder.
func NewBuilder() *Builder {
	return &Builder{table: make(map[uint64][]*Node)}
}

// Size reports the number of distinct nodes interned so far.
func (b *Builder) Size() int {
	n := 0
	for _, bucket := range b.table {
		n += len(bucket)
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
	h := n.Summary().Digest
	for _, c := range b.table[h] {
		if c == n || Equal(c, n) {
			return c
		}
	}
	b.table[h] = append(b.table[h], n)
	return n
}

// Elem constructs an interned element node (see NewElem).
func (b *Builder) Elem(tag, text string, kids ...*Node) *Node {
	return b.Intern(NewElem(tag, text, kids...))
}

// Leaf constructs an interned leaf element (see NewLeaf).
func (b *Builder) Leaf(tag, text string) *Node {
	return b.Intern(NewLeaf(tag, text))
}

// Prob constructs an interned probability node (see NewProb).
func (b *Builder) Prob(poss ...*Node) *Node {
	return b.Intern(NewProb(poss...))
}

// Poss constructs an interned possibility node (see NewPoss).
func (b *Builder) Poss(p float64, elems ...*Node) *Node {
	return b.Intern(NewPoss(p, elems...))
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
	rebuilt := n
	if newKids != nil {
		switch n.kind {
		case KindElem:
			rebuilt = NewElem(n.tag, n.text, newKids...)
		case KindPoss:
			rebuilt = NewPoss(n.prob, newKids...)
		default:
			rebuilt = NewProb(newKids...)
		}
	}
	out := b.Intern(rebuilt)
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
