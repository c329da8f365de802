package pxml

import (
	"hash/fnv"
	"math"
	"strconv"
)

// Equal reports structural equality of two subtrees: same kinds, tags,
// texts, child order, and probabilities within ProbEpsilon. Shared pointers
// short-circuit, so comparing heavily shared documents stays cheap.
func Equal(a, b *Node) bool {
	return equalMemo(a, b, make(map[[2]*Node]bool))
}

func equalMemo(a, b *Node, memo map[[2]*Node]bool) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	key := [2]*Node{a, b}
	if v, ok := memo[key]; ok {
		return v
	}
	// Guard against cycles through the memo: optimistically assume equal
	// while descending; acyclic documents are unaffected.
	memo[key] = true
	eq := a.kind == b.kind &&
		a.tag == b.tag &&
		a.text == b.text &&
		math.Abs(a.prob-b.prob) <= ProbEpsilon &&
		len(a.kids) == len(b.kids)
	if eq {
		for i := range a.kids {
			if !equalMemo(a.kids[i], b.kids[i], memo) {
				eq = false
				break
			}
		}
	}
	memo[key] = eq
	return eq
}

// DeepEqualElems reports whether two element subtrees represent the same
// content, ignoring how certain children are grouped into trivial (single
// alternative, probability 1) choice points. This is the comparison behind
// the paper's generic rule "two deep-equal elements refer to the same rwo",
// and it makes compact and marker-preserving serializations compare equal.
// Genuine choice points must agree on alternative count, probabilities
// (within ProbEpsilon) and, recursively, alternative contents.
func DeepEqualElems(a, b *Node) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.kind != KindElem || b.kind != KindElem {
		return false
	}
	if a.tag != b.tag || a.text != b.text {
		return false
	}
	ia, ib := deepIter{elem: a}, deepIter{elem: b}
	for {
		ca, cb := ia.next(), ib.next()
		if ca == nil || cb == nil {
			return ca == cb
		}
		if !deepEqualAny(ca, cb) {
			return false
		}
	}
}

// deepEqualAny compares two nodes that are either elements or genuine
// choice points, applying trivial-wrapper flattening at every level.
func deepEqualAny(a, b *Node) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.kind != b.kind {
		return false
	}
	switch a.kind {
	case KindElem:
		return DeepEqualElems(a, b)
	case KindProb:
		if len(a.kids) != len(b.kids) {
			return false
		}
		for i := range a.kids {
			pa, pb := a.kids[i], b.kids[i]
			if math.Abs(pa.prob-pb.prob) > ProbEpsilon || len(pa.kids) != len(pb.kids) {
				return false
			}
			for j := range pa.kids {
				if !DeepEqualElems(pa.kids[j], pb.kids[j]) {
					return false
				}
			}
		}
		return true
	default:
		return Equal(a, b)
	}
}

// deepIter yields an element's children with trivial choice points
// flattened: for each ProbNode child with a single alternative the
// alternative's elements, genuine choice points as-is; nil at the end. The
// deep-equal rule runs on every pair put to the Oracle, so the flattening
// is a cursor, not a slice.
type deepIter struct {
	elem *Node
	p, e int // next prob child; next element inside it when it is trivial
}

func (it *deepIter) next() *Node {
	for it.p < len(it.elem.kids) {
		prob := it.elem.kids[it.p]
		if len(prob.kids) != 1 {
			it.p++
			return prob
		}
		if elems := prob.kids[0].kids; it.e < len(elems) {
			it.e++
			return elems[it.e-1]
		}
		it.p, it.e = it.p+1, 0
	}
	return nil
}

// Hash returns a structural FNV-1a hash consistent with Equal: equal
// subtrees hash identically. Probabilities are quantized to ProbEpsilon
// resolution before hashing.
func Hash(n *Node) uint64 {
	return hashMemo(n, make(map[*Node]uint64))
}

func hashMemo(n *Node, memo map[*Node]uint64) uint64 {
	if n == nil {
		return 0
	}
	if s := n.summary.Load(); s != nil {
		return s.Digest
	}
	if h, ok := memo[n]; ok {
		return h
	}
	v := combineHash(n, func(k *Node) uint64 { return hashMemo(k, memo) })
	memo[n] = v
	return v
}

// combineHash computes a node's structural hash from its own fields and
// its children's hashes (obtained through kidHash). It is the single
// definition of the hash, shared by Hash and the Summary digest so the two
// can never drift apart.
func combineHash(n *Node, kidHash func(*Node) uint64) uint64 {
	h := fnv.New64a()
	h.Write([]byte{byte(n.kind)})
	h.Write([]byte(n.tag))
	h.Write([]byte{0})
	h.Write([]byte(n.text))
	h.Write([]byte{0})
	if n.kind == KindPoss {
		q := int64(math.Round(n.prob / ProbEpsilon))
		h.Write([]byte(strconv.FormatInt(q, 16)))
	}
	var buf [8]byte
	for _, k := range n.kids {
		kh := kidHash(k)
		for i := 0; i < 8; i++ {
			buf[i] = byte(kh >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}
