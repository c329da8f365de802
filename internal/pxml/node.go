// Package pxml implements the probabilistic XML data model of IMPrECISE
// (de Keijzer & van Keulen, ICDE 2008) and its formal basis (van Keulen,
// de Keijzer & Alink, ICDE 2005).
//
// A probabilistic XML document is a strictly layered tree built from three
// node kinds:
//
//	ProbNode (▽)  — a choice point. Its children are PossNodes. The root of
//	                every document is a ProbNode.
//	PossNode (○)  — one alternative of a choice point, annotated with a
//	                probability. Sibling PossNodes are mutually exclusive and
//	                their probabilities sum to 1. Its children are ElemNodes.
//	ElemNode (□)  — a regular XML element with a tag and optional text value.
//	                Its children are ProbNodes, which are mutually
//	                independent choice points.
//
// A document in which every ProbNode has exactly one PossNode with
// probability 1 is certain: it represents a single possible world.
//
// Nodes are immutable after construction. Subtrees may therefore be shared
// between possibilities; the package distinguishes the logical node count
// (each occurrence counted, the measure reported in the paper) from the
// physical node count (distinct nodes in memory).
package pxml

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Kind discriminates the three node kinds of the layered model.
type Kind uint8

const (
	// KindProb is a probability node (▽), a choice point.
	KindProb Kind = iota
	// KindPoss is a possibility node (○), one alternative of a choice point.
	KindPoss
	// KindElem is a regular XML element node (□).
	KindElem
)

// String returns the conventional symbol and name of the kind.
func (k Kind) String() string {
	switch k {
	case KindProb:
		return "prob"
	case KindPoss:
		return "poss"
	case KindElem:
		return "elem"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ProbEpsilon is the tolerance used when checking that sibling possibility
// probabilities sum to one and when comparing probabilities for equality.
const ProbEpsilon = 1e-6

// Node is a node of a probabilistic XML tree. The zero value is not useful;
// use NewElem, NewLeaf, NewProb, NewPoss or the builder helpers.
//
// Nodes must be treated as immutable once they are reachable from a Tree.
// All algorithms in this module rely on that to share subtrees freely.
type Node struct {
	kind Kind
	tag  string  // KindElem only: the element name
	text string  // KindElem only: text content (leaf value)
	prob float64 // KindPoss only: the probability of this alternative
	kids []*Node

	// digest is the structural digest of the subtree (see Hash), set once
	// at construction from the node's own fields and its children's
	// digests.
	digest uint64

	// summary caches the subtree's static summary (world count, descendant
	// tag set, counts). It is computed lazily on first use; see Summary.
	// Immutability of the node makes the cached value valid forever.
	summary atomic.Pointer[Summary]

	// canon caches the node's normal form once Normalize has computed it:
	// the node itself when it is a fixpoint. Normalization is a pure
	// function of the (immutable) structure, so the pointer is valid
	// forever and lets later Normalize calls skip entire already-canonical
	// subtrees — the delta-integration property that makes ingesting a
	// small source cost time proportional to what it touches instead of to
	// the accumulated tree.
	canon atomic.Pointer[Node]
}

// Kind reports the node kind.
func (n *Node) Kind() Kind { return n.kind }

// Tag returns the element name. It is empty for non-element nodes.
func (n *Node) Tag() string { return n.tag }

// Text returns the element text value. It is empty for non-element nodes
// and for non-leaf elements.
func (n *Node) Text() string { return n.text }

// Prob returns the probability of a possibility node. It returns 1 for
// nodes of other kinds so that path-probability products are convenient.
func (n *Node) Prob() float64 {
	if n.kind == KindPoss {
		return n.prob
	}
	return 1
}

// Children returns the node's children. The returned slice must not be
// modified.
func (n *Node) Children() []*Node { return n.kids }

// NumChildren reports the number of children.
func (n *Node) NumChildren() int { return len(n.kids) }

// Child returns the i-th child.
func (n *Node) Child(i int) *Node { return n.kids[i] }

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.kids) == 0 }

// NewElem constructs an element node with the given tag, text value and
// probability-node children. It panics if any child is not a ProbNode.
func NewElem(tag, text string, kids ...*Node) *Node {
	return newNode(KindElem, tag, text, 0, kids)
}

// NewLeaf constructs a leaf element carrying a text value.
func NewLeaf(tag, text string) *Node {
	return newNode(KindElem, tag, text, 0, nil)
}

// NewProb constructs a probability node from its possibility alternatives.
// It panics if any child is not a PossNode or if there are no alternatives.
func NewProb(poss ...*Node) *Node {
	return newNode(KindProb, "", "", 0, poss)
}

// NewPoss constructs a possibility node with probability p and the given
// element children. An empty child list is legal: it represents the
// alternative in which none of the elements exist. It panics on
// probabilities outside (0, 1+ProbEpsilon] or non-element children.
func NewPoss(p float64, elems ...*Node) *Node {
	return newNode(KindPoss, "", "", p, elems)
}

func newNode(kind Kind, tag, text string, prob float64, kids []*Node) *Node {
	prob = check(kind, prob, kids)
	return &Node{kind: kind, tag: tag, text: text, prob: prob, kids: kids, digest: digestOf(kind, tag, text, prob, kids)}
}

// check panics unless the parts make a node of the layered model — layering
// violations are programming errors, not data errors — and returns the
// probability clamped to 1. It reads the children without keeping them.
func check(kind Kind, prob float64, kids []*Node) float64 {
	if kind == KindProb && len(kids) == 0 {
		panic("pxml: prob node needs at least one possibility")
	}
	if kind == KindPoss && (math.IsNaN(prob) || prob <= 0 || prob > 1+ProbEpsilon) {
		panic(fmt.Sprintf("pxml: possibility probability %g out of range (0,1]", prob))
	}
	for _, k := range kids {
		if k == nil || k.kind != childKind(kind) {
			panic(fmt.Sprintf("pxml: %v node child must be a %v node, got %v", kind, childKind(kind), kindOf(k)))
		}
	}
	return min(prob, 1)
}

// childKind returns the only kind the layered model allows below k.
func childKind(k Kind) Kind {
	switch k {
	case KindProb:
		return KindPoss
	case KindPoss:
		return KindElem
	default:
		return KindProb
	}
}

// Certain wraps element nodes into the canonical certain choice point:
// a ProbNode with a single PossNode of probability 1.
func Certain(elems ...*Node) *Node {
	return NewProb(NewPoss(1, elems...))
}

func kindOf(n *Node) string {
	if n == nil {
		return "nil"
	}
	return n.kind.String()
}

// Tree is a probabilistic XML document: a ProbNode root.
type Tree struct {
	root *Node
}

// NewTree wraps a root node into a Tree. The root must be a ProbNode;
// use Certain to wrap a plain element.
func NewTree(root *Node) (*Tree, error) {
	if root == nil {
		return nil, fmt.Errorf("pxml: nil root")
	}
	if root.kind != KindProb {
		return nil, fmt.Errorf("pxml: tree root must be a prob node, got %v", root.kind)
	}
	return &Tree{root: root}, nil
}

// MustTree is NewTree that panics on error; intended for tests and
// literals whose validity is statically evident.
func MustTree(root *Node) *Tree {
	t, err := NewTree(root)
	if err != nil {
		panic(err)
	}
	return t
}

// CertainTree builds a certain single-world document from a plain element.
func CertainTree(rootElem *Node) *Tree {
	return MustTree(Certain(rootElem))
}

// Root returns the root ProbNode of the document.
func (t *Tree) Root() *Node { return t.root }

// RootElements returns the element children of the root choice point of a
// certain tree, i.e. the document element(s). It returns nil if the root
// choice point has more than one alternative.
func (t *Tree) RootElements() []*Node {
	if len(t.root.kids) != 1 {
		return nil
	}
	return t.root.kids[0].kids
}

// IsCertain reports whether the document represents exactly one possible
// world: every reachable ProbNode has a single alternative.
func (t *Tree) IsCertain() bool {
	certain := true
	WalkUnique(t.root, func(n *Node) bool {
		if n.kind == KindProb && len(n.kids) != 1 {
			certain = false
			return false
		}
		return true
	})
	return certain
}
