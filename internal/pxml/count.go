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

// CollectStats computes all size measures in one traversal: every distinct
// node is visited once, and the one visited map — pooled, like
// WalkUnique's — remembers what its subtree adds per occurrence.
func (t *Tree) CollectStats() Stats {
	s := Stats{Worlds: t.WorldCount()}
	seen := subtreeSets.Get().(map[*Node]subtreeCount)
	st := collect(t.root, seen, &s)
	s.LogicalProb, s.LogicalPoss, s.LogicalElem = st.count[KindProb], st.count[KindPoss], st.count[KindElem]
	s.LogicalNodes = s.LogicalProb + s.LogicalPoss + s.LogicalElem
	s.PhysicalNodes = int64(len(seen))
	s.MaxDepth = st.depth
	clear(seen)
	subtreeSets.Put(seen)
	return s
}

// subtreeCount is what one subtree adds per occurrence: its (prob, poss,
// elem) nodes and its depth.
type subtreeCount struct {
	count [3]int64
	depth int
}

var subtreeSets = sync.Pool{New: func() any { return make(map[*Node]subtreeCount) }}

func collect(n *Node, seen map[*Node]subtreeCount, s *Stats) subtreeCount {
	if st, ok := seen[n]; ok {
		return st
	}
	var st subtreeCount
	st.count[n.kind] = 1
	for _, k := range n.kids {
		ks := collect(k, seen, s)
		for i, c := range ks.count {
			st.count[i] += c
		}
		st.depth = max(st.depth, ks.depth)
	}
	st.depth++
	if n.kind == KindProb && len(n.kids) > 1 {
		s.ChoicePoints++
	}
	seen[n] = st
	return st
}

// NodeCount returns the logical node count (each occurrence of a shared
// subtree counted separately), the paper's size measure. It is a sum over
// children, so it comes from the cached subtree summaries: after the first
// call on a document it is O(1), and on a document built around
// carried-over subtrees only the new nodes are visited.
func (t *Tree) NodeCount() int64 { return t.root.Summary().Nodes }

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
// compose over shared subtrees, so this stays a walk; it skips every
// subtree with a single possible world, which cannot hold a choice point.
func (t *Tree) ChoicePoints() int {
	n := 0
	WalkUnique(t.root, func(nd *Node) bool {
		if w := nd.Summary().Worlds; w.IsInt64() && w.Int64() == 1 {
			return false
		}
		if nd.kind == KindProb && len(nd.kids) > 1 {
			n++
		}
		return true
	})
	return n
}
