package pxml

import (
	"math/big"
	"sync"
)

// Stats summarizes the size of a probabilistic document. Logical counts
// weigh shared subtrees once per occurrence — this is the "#nodes" measure
// reported in the paper, corresponding to a fully materialized document.
// Physical counts report distinct allocated nodes.
type Stats struct {
	LogicalNodes  int64 // all node occurrences (prob + poss + elem)
	LogicalProb   int64
	LogicalPoss   int64
	LogicalElem   int64
	PhysicalNodes int64 // distinct nodes in memory
	ChoicePoints  int   // distinct choice points with more than one alternative (Tree.ChoicePoints)
	MaxDepth      int   // layers from root to deepest leaf
	Worlds        *big.Int
}

// CollectStats computes all size measures: the logical counts, depth and
// world count compose over children, so they come from the root's cached
// summary, and one WalkUnique counts the distinct nodes and choice points.
func (t *Tree) CollectStats() Stats {
	sum := t.root.Summary()
	s := Stats{
		LogicalNodes: sum.Nodes(),
		LogicalProb:  sum.Kinds[KindProb],
		LogicalPoss:  sum.Kinds[KindPoss],
		LogicalElem:  sum.Kinds[KindElem],
		MaxDepth:     sum.Depth,
		Worlds:       t.WorldCount(),
	}
	WalkUnique(t.root, func(n *Node) bool {
		s.PhysicalNodes++
		if n.kind == KindProb && len(n.kids) > 1 {
			s.ChoicePoints++
		}
		return true
	})
	return s
}

// NodeCount returns the logical node count (each occurrence of a shared
// subtree counted separately), the paper's size measure. It is a sum over
// children, so it comes from the cached subtree summaries: after the first
// call on a document it is O(1), and on a document built around
// carried-over subtrees only the new nodes are visited.
func (t *Tree) NodeCount() int64 { return t.root.Summary().Nodes() }

// PhysicalNodeCount returns the number of distinct nodes in memory.
func (t *Tree) PhysicalNodeCount() int64 {
	var c int64
	WalkUnique(t.root, func(*Node) bool { c++; return true })
	return c
}

// WorldCount returns the exact number of possible worlds represented by
// the document. Choice points multiply across independent siblings and sum
// across alternatives, so the count can be astronomically large; hence the
// big.Int result. The count comes from the cached subtree summaries, so
// after the first call on a document it is O(1); the returned value is a
// private copy the caller may mutate.
func (t *Tree) WorldCount() *big.Int {
	return new(big.Int).Set(t.root.Summary().Worlds)
}

// ChoicePoints returns the number of genuine choice points: distinct
// ProbNodes with more than one alternative. A distinct-node count does not
// compose over shared subtrees, so this stays a walk; it tests each node's
// summary before its visited set, so a subtree with a single possible
// world, which cannot hold a choice point, is neither entered nor recorded.
func (t *Tree) ChoicePoints() int {
	seen := choicePointSets.Get().(map[*Node]struct{})
	n := choicePoints(t.root, seen)
	clear(seen)
	choicePointSets.Put(seen)
	return n
}

// choicePointSets pools ChoicePoints' visited sets apart from WalkUnique's:
// clearing a map costs its capacity, and ChoicePoints records only the
// nodes above a choice point, far fewer than a whole-document walk grows
// a set to.
var choicePointSets = sync.Pool{New: func() any { return make(map[*Node]struct{}) }}

func choicePoints(nd *Node, seen map[*Node]struct{}) int {
	if nd.Summary().OneWorld() {
		return 0
	}
	if _, ok := seen[nd]; ok {
		return 0
	}
	seen[nd] = struct{}{}
	n := 0
	if nd.kind == KindProb && len(nd.kids) > 1 {
		n = 1
	}
	for _, k := range nd.kids {
		n += choicePoints(k, seen)
	}
	return n
}
