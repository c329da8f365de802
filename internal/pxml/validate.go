package pxml

import (
	"fmt"
	"math"
	"strings"
)

// ValidationError describes a structural violation of the layered
// probabilistic XML model, with a path from the root to the offending node.
type ValidationError struct {
	Path string // slash-separated description, e.g. /prob/poss[0]/movie/prob[1]
	Msg  string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("pxml: invalid document at %s: %s", e.Path, e.Msg)
}

// Validate checks the full layered-model invariants of the document:
//
//   - the root is a ProbNode,
//   - ProbNode children are PossNodes (at least one),
//   - PossNode children are ElemNodes and sibling probabilities sum to 1
//     within ProbEpsilon, each in (0, 1],
//   - ElemNode children are ProbNodes and tags are non-empty,
//   - the structure is acyclic (sharing is allowed, cycles are not).
//
// It returns the first violation found, or nil. The path of a violation is
// rendered only when one is found.
func (t *Tree) Validate() error {
	if t == nil || t.root == nil {
		return &ValidationError{Path: "/", Msg: "nil tree"}
	}
	if t.root.kind != KindProb {
		return &ValidationError{Path: "/", Msg: fmt.Sprintf("root must be prob, got %v", t.root.kind)}
	}
	// ok caches nodes already validated (sharing), onPath detects cycles,
	// and steps is the way down from the root: a parent and the index of
	// the child taken, rendered as a path only for a violation.
	ok := make(map[*Node]bool)
	onPath := make(map[*Node]bool)
	var steps []step
	fail := func(msg string) error { return &ValidationError{Path: pathOf(steps), Msg: msg} }
	failChild := func(parent *Node, i int, msg string) error {
		steps = append(steps, step{parent, i})
		return fail(msg)
	}
	var rec func(n *Node) error
	rec = func(n *Node) error {
		if n == nil {
			return fail("nil node")
		}
		if onPath[n] {
			return fail("cycle detected")
		}
		if ok[n] {
			return nil
		}
		onPath[n] = true
		defer delete(onPath, n)

		switch n.kind {
		case KindProb:
			if len(n.kids) == 0 {
				return fail("prob node without possibilities")
			}
			sum := 0.0
			for i, k := range n.kids {
				if k == nil || k.kind != KindPoss {
					return failChild(n, i, "prob child must be poss")
				}
				sum += k.prob
			}
			if math.Abs(sum-1) > ProbEpsilon*float64(len(n.kids)+1) {
				return fail(fmt.Sprintf("possibility probabilities sum to %g, want 1", sum))
			}
		case KindPoss:
			if n.prob <= 0 || n.prob > 1+ProbEpsilon || math.IsNaN(n.prob) {
				return fail(fmt.Sprintf("probability %g out of range (0,1]", n.prob))
			}
			for i, k := range n.kids {
				if k == nil || k.kind != KindElem {
					return failChild(n, i, "poss child must be element")
				}
			}
		case KindElem:
			if n.tag == "" {
				return fail("element with empty tag")
			}
			for i, k := range n.kids {
				if k == nil || k.kind != KindProb {
					return failChild(n, i, "element child must be prob")
				}
			}
		default:
			return fail(fmt.Sprintf("unknown kind %d", n.kind))
		}
		for i, k := range n.kids {
			steps = append(steps, step{n, i})
			if err := rec(k); err != nil {
				return err
			}
			steps = steps[:len(steps)-1]
		}
		ok[n] = true
		return nil
	}
	return rec(t.root)
}

// step is one edge of a path from the root: parent's i-th child.
type step struct {
	parent *Node
	i      int
}

// pathOf renders a path from the root, e.g. /poss[0]/movie/prob[1].
func pathOf(steps []step) string {
	if len(steps) == 0 {
		return "/"
	}
	var b strings.Builder
	for _, s := range steps {
		switch s.parent.kind {
		case KindProb:
			fmt.Fprintf(&b, "/poss[%d]", s.i)
		case KindPoss:
			if c := s.parent.kids[s.i]; c != nil && c.kind == KindElem {
				b.WriteString("/" + c.tag)
			} else {
				fmt.Fprintf(&b, "/elem[%d]", s.i)
			}
		default:
			fmt.Fprintf(&b, "/prob[%d]", s.i)
		}
	}
	return b.String()
}
