package pxml

import "math/big"

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
	MaxDepth      int   // layers from root to deepest leaf
	Worlds        *big.Int
}

// CollectStats computes all size measures in one pass each.
func (t *Tree) CollectStats() Stats {
	s := Stats{Worlds: t.WorldCount()}
	counts := map[*Node][3]int64{} // per-occurrence (prob, poss, elem) of the subtree
	var rec func(n *Node) [3]int64
	rec = func(n *Node) [3]int64 {
		if c, ok := counts[n]; ok {
			return c
		}
		var c [3]int64
		c[n.kind] = 1
		for _, k := range n.kids {
			kc := rec(k)
			c[0] += kc[0]
			c[1] += kc[1]
			c[2] += kc[2]
		}
		counts[n] = c
		return c
	}
	c := rec(t.root)
	s.LogicalProb, s.LogicalPoss, s.LogicalElem = c[KindProb], c[KindPoss], c[KindElem]
	s.LogicalNodes = c[0] + c[1] + c[2]
	s.PhysicalNodes = int64(len(counts))
	s.MaxDepth = maxDepth(t.root, map[*Node]int{})
	return s
}

func maxDepth(n *Node, memo map[*Node]int) int {
	if d, ok := memo[n]; ok {
		return d
	}
	d := 1
	for _, k := range n.kids {
		if kd := maxDepth(k, memo) + 1; kd > d {
			d = kd
		}
	}
	memo[n] = d
	return d
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
