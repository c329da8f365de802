package pxml

import "sync"

// Walk visits every node occurrence in depth-first pre-order. Shared
// subtrees are visited once per occurrence. The visit function returns
// false to skip the node's subtree.
func Walk(n *Node, visit func(*Node) bool) {
	if n == nil {
		return
	}
	if !visit(n) {
		return
	}
	for _, k := range n.kids {
		Walk(k, visit)
	}
}

// WalkUnique visits every distinct node reachable from n exactly once, in
// depth-first pre-order of first discovery. Returning false from visit
// skips the node's subtree (the subtree may still be reached via another
// occurrence). Use this for traversals whose cost must stay proportional to
// physical size even on heavily shared documents. The visited set is taken
// from a pool and cleared, so a walk allocates nothing once the pool holds
// a set that has grown to the document's size.
func WalkUnique(n *Node, visit func(*Node) bool) {
	seen := visitedSets.Get().(map[*Node]struct{})
	walkUnique(n, seen, visit)
	clear(seen)
	visitedSets.Put(seen)
}

func walkUnique(n *Node, seen map[*Node]struct{}, visit func(*Node) bool) {
	if n == nil {
		return
	}
	if _, ok := seen[n]; ok {
		return
	}
	seen[n] = struct{}{}
	if !visit(n) {
		return
	}
	for _, k := range n.kids {
		walkUnique(k, seen, visit)
	}
}

// visitedSets pools the visited sets of WalkUnique.
var visitedSets = sync.Pool{New: func() any { return make(map[*Node]struct{}) }}

// ElementChildren returns the element grandchildren of an element node
// that exist with certainty, i.e. elements under single-alternative
// probability children. Elements under genuine choice points are skipped.
func ElementChildren(elem *Node) []*Node {
	if elem.kind != KindElem {
		return nil
	}
	var out []*Node
	for _, p := range elem.kids {
		if len(p.kids) == 1 {
			out = append(out, p.kids[0].kids...)
		}
	}
	return out
}

// CertainChild returns the unique certainly-existing child element with the
// given tag, or nil if there is none or it is uncertain. It runs once per
// rule per element pair on the integration hot path, so it scans the
// children in place instead of materialising ElementChildren.
func CertainChild(elem *Node, tag string) *Node {
	if elem.kind != KindElem {
		return nil
	}
	var found *Node
	for _, p := range elem.kids {
		if len(p.kids) != 1 {
			continue
		}
		for _, c := range p.kids[0].kids {
			if c.tag == tag {
				if found != nil {
					return nil
				}
				found = c
			}
		}
	}
	return found
}

// CertainText returns the text of the unique certainly-existing child leaf
// with the given tag, or "" if absent or uncertain.
func CertainText(elem *Node, tag string) string {
	if c := CertainChild(elem, tag); c != nil {
		return c.text
	}
	return ""
}

// CertainTexts returns the texts of all certainly-existing children with
// the given tag, in document order.
func CertainTexts(elem *Node, tag string) []string {
	var out []string
	for _, c := range ElementChildren(elem) {
		if c.tag == tag {
			out = append(out, c.text)
		}
	}
	return out
}
