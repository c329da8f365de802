package query

import (
	"strings"

	"repro/internal/pxml"
)

// This file evaluates queries over one possible world, as the world walker
// (walker.go) lays it out. It is the only evaluator: the enumerate and
// sample methods apply it to whole worlds, the exact executor to the local
// worlds of anchor subtrees, starting mid-path via state sets, and
// EvalWorld, CountWorld and StringValue to certain elements laid out as a
// view with no choices.
//
// A state set is a bitmask over step indices: bit i set means "steps[i] is
// still looking for a match in the current context". Queries are limited
// to 63 steps, far beyond anything sensible.

// stateSet is a bitmask of pending step indices.
type stateSet uint64

func (s stateSet) has(i int) bool     { return s&(1<<uint(i)) != 0 }
func (s stateSet) add(i int) stateSet { return s | (1 << uint(i)) }

// StringValue returns the string value of a certain element: its own text
// followed by the text of its certain descendants in document order,
// space-separated.
func StringValue(elem *pxml.Node) string {
	if elem.IsLeaf() {
		return elem.Text()
	}
	return certainView(elem).stringValue(0)
}

// stringValue is StringValue of slot i. Its subtree is laid out in
// document order, so the texts are read in one pass over the slots.
func (w *walker) stringValue(i int32) string {
	end := w.slots[i].end
	if end == i+1 {
		return w.slots[i].n.Text()
	}
	var b strings.Builder
	for ; i < end; i++ {
		if t := w.slots[i].n.Text(); t != "" {
			if b.Len() > 0 {
				b.WriteString(" ")
			}
			b.WriteString(t)
		}
	}
	return b.String()
}

func stepMatches(s Step, elem *pxml.Node) bool {
	if s.IsText {
		return false
	}
	return s.Name == "*" || s.Name == elem.Tag()
}

// predsHold evaluates all predicates of a step against the context element
// in slot i.
func (w *walker) predsHold(s Step, i int32) bool {
	for _, p := range s.Preds {
		if !w.evalPred(p, i) {
			return false
		}
	}
	return true
}

func (w *walker) evalPred(p Pred, ctx int32) bool {
	switch p := p.(type) {
	case PredExists:
		return w.relPathMatches(ctx, p.Path, p.Cond)
	case PredAnd:
		return w.evalPred(p.A, ctx) && w.evalPred(p.B, ctx)
	case PredOr:
		return w.evalPred(p.A, ctx) || w.evalPred(p.B, ctx)
	case PredNot:
		return !w.evalPred(p.P, ctx)
	default:
		return false
	}
}

// relPathMatches reports whether some node reached from the context slot
// by the relative path has a value cond matches: its own text for a text()
// step, its string value otherwise. It stops at the first match.
func (w *walker) relPathMatches(ctx int32, rp RelPath, cond ValueCond) bool {
	if len(rp.Steps) == 0 {
		return rp.Self && cond.Match(w.stringValue(ctx))
	}
	if rp.Steps[0].IsText {
		// `./text()` or `text()`: the context's own text.
		t := w.slots[ctx].n.Text()
		return t != "" && cond.Match(t)
	}
	// The first step applies to the children of the context (and deeper,
	// when its axis is descendant — state propagation handles that).
	for c := ctx + 1; c < w.slots[ctx].end; c = w.slots[c].end {
		if w.relPathFrom(rp, cond, c, stateSet(1)) {
			return true
		}
	}
	return false
}

// relPathFrom runs the relative path's NFA over slot i in the given states.
func (w *walker) relPathFrom(rp RelPath, cond ValueCond, i int32, states stateSet) bool {
	last := len(rp.Steps) - 1
	e := w.slots[i].n
	var next stateSet
	for j := 0; j <= last; j++ {
		if !states.has(j) {
			continue
		}
		step := rp.Steps[j]
		if step.Desc {
			next = next.add(j)
		}
		if !stepMatches(step, e) || !w.predsHold(step, i) {
			continue
		}
		switch {
		case j == last:
			if cond.Match(w.stringValue(i)) {
				return true
			}
		case rp.Steps[j+1].IsText:
			if t := e.Text(); t != "" && cond.Match(t) {
				return true
			}
		default:
			next = next.add(j + 1)
		}
	}
	if next == 0 {
		return false
	}
	for c := i + 1; c < w.slots[i].end; c = w.slots[c].end {
		if w.relPathFrom(rp, cond, c, next) {
			return true
		}
	}
	return false
}

// evalFrom runs the query NFA over slot i with an initial state set,
// emitting every result value. Used both for whole-world evaluation
// (starting at document roots with state 0) and for anchor-subtree
// evaluation in the exact evaluator (starting mid-path).
func (w *walker) evalFrom(q *Query, i int32, states stateSet) {
	if states == 0 {
		return
	}
	last := len(q.Steps) - 1
	e := w.slots[i].n
	var next stateSet
	for j := 0; j <= last; j++ {
		if !states.has(j) {
			continue
		}
		step := q.Steps[j]
		if step.Desc {
			next = next.add(j) // keep searching deeper
		}
		if !stepMatches(step, e) || !w.predsHold(step, i) {
			continue
		}
		switch {
		case j == last:
			w.emit(w.stringValue(i))
		case q.Steps[j+1].IsText:
			if e.Text() != "" {
				w.emit(e.Text())
			}
		default:
			next = next.add(j + 1)
		}
	}
	if next == 0 {
		return
	}
	for c := i + 1; c < w.slots[i].end; c = w.slots[c].end {
		w.evalFrom(q, c, next)
	}
}

// EvalWorld evaluates the query in one certain world and returns the set
// of distinct answer values.
func EvalWorld(q *Query, rootElems []*pxml.Node) map[string]bool {
	w := certainView(rootElems...)
	w.eval(q, stateSet(1))
	out := make(map[string]bool, len(w.vals))
	for _, v := range w.vals {
		out[v] = true
	}
	return out
}
