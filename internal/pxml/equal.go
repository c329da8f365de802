package pxml

import (
	"math"
	"strconv"
)

// Equal reports structural equality of two subtrees: same kinds, tags,
// texts, child order, and probabilities within ProbEpsilon that quantize to
// the same digest. Shared pointers and differing digests short-circuit, so
// comparing heavily shared documents, or unequal ones, stays cheap.
func Equal(a, b *Node) bool {
	if a == b || a == nil || b == nil || a.digest != b.digest {
		return a == b
	}
	return equalMemo(a, b, make(map[[2]*Node]bool))
}

func equalMemo(a, b *Node, memo map[[2]*Node]bool) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.digest != b.digest {
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

// ShapeDigest hashes what DeepEqualElems compares of an element, except the
// probabilities: its tag and text, and for each node deepIter yields, its
// shape — an element's shape digest, or a genuine choice point's
// alternative count and each alternative's element count and elements'
// shape digests. It is consistent with DeepEqualElems: deep-equal elements
// have equal shape digests, so unequal ones settle "not deep-equal" without
// a walk, while equal ones settle nothing. Probabilities stay out because
// DeepEqualElems compares them within ProbEpsilon, which a hash cannot. A
// node that is not an element is deep-equal to itself only, and its shape
// digest is its digest.
func ShapeDigest(e *Node) uint64 {
	if e == nil || e.kind != KindElem {
		return Hash(e)
	}
	h := fnvByte(fnvString(fnvByte(fnvString(fnvOffset, e.tag), 0), e.text), 0)
	it := deepIter{elem: e}
	for c := it.next(); c != nil; c = it.next() {
		switch c.kind {
		case KindElem:
			h = fnvWord(h, ShapeDigest(c))
		case KindProb:
			h = fnvWord(fnvByte(h, byte(KindProb)), uint64(len(c.kids)))
			for _, alt := range c.kids {
				h = fnvWord(h, uint64(len(alt.kids)))
				for _, k := range alt.kids {
					h = fnvWord(h, ShapeDigest(k))
				}
			}
		default: // deepEqualAny compares it by Equal, which implies equal digests
			h = fnvWord(fnvByte(h, byte(c.kind)), c.digest)
		}
	}
	return h
}

// fnvWord mixes a 64-bit word into an FNV-1a state in one step.
func fnvWord(h, w uint64) uint64 { return (h ^ w) * fnvPrime }

// Hash returns the node's structural digest, consistent with Equal: equal
// subtrees have equal digests. It is set at construction, so Hash is a field
// read.
func Hash(n *Node) uint64 {
	if n == nil {
		return 0
	}
	return n.digest
}

// digestOf is the one definition of the structural digest: FNV-1a over the
// kind byte, the tag and the text each followed by a zero byte, a
// possibility's probability quantized to ProbEpsilon steps as a hexadecimal
// integer, and each child's digest as 8 little-endian bytes. Snapshots, log
// trailers, replication and the result cache all carry digests, so this
// byte sequence must not change.
func digestOf(kind Kind, tag, text string, prob float64, kids []*Node) uint64 {
	h := fnvByte(fnvOffset, byte(kind))
	h = fnvByte(fnvString(h, tag), 0)
	h = fnvByte(fnvString(h, text), 0)
	if kind == KindPoss {
		var buf [24]byte
		for _, c := range strconv.AppendInt(buf[:0], int64(math.Round(prob/ProbEpsilon)), 16) {
			h = fnvByte(h, c)
		}
	}
	for _, k := range kids {
		for i := 0; i < 8; i++ {
			h = fnvByte(h, byte(k.digest>>(8*i)))
		}
	}
	return h
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvByte(h uint64, c byte) uint64 { return (h ^ uint64(c)) * fnvPrime }

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}
