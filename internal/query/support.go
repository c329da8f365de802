package query

import "repro/internal/pxml"

// Support calls fn once for each genuine choice point (two or more
// alternatives) whose choice can change whether q yields value: those of
// the region ConditionAbsent enters for (q, value), walked with the exact
// executor's gate and the value required of the answer step, and all those
// inside an anchor anchorCanMatch admits, since local enumeration reads the
// whole anchor. Outside the region no world yields the value. path runs
// from t's root to the choice point, the first place a depth-first walk
// reaches it; fn must not keep it.
func Support(t *pxml.Tree, q *Query, value string, fn func(path []*pxml.Node)) error {
	ev, err := newExactEval(q, 0)
	if err != nil {
		return err
	}
	ev.need = stepNeeds(q, value)
	ev.prepare(t)
	seen := make(map[localKey]bool) // keyed as dist's memo; state set 0: inside an anchor
	reported := make(map[*pxml.Node]bool)
	var path []*pxml.Node
	var walk func(n *pxml.Node, states stateSet)
	walk = func(n *pxml.Node, states stateSet) {
		if seen[localKey{n, states}] || states != 0 && !ev.canMatch(n, states) {
			return
		}
		seen[localKey{n, states}] = true
		path = append(path, n)
		defer func() { path = path[:len(path)-1] }()
		if n.Kind() == pxml.KindProb && n.NumChildren() > 1 && !reported[n] {
			reported[n] = true
			fn(path)
		}
		if states != 0 && n.Kind() == pxml.KindElem {
			next, hit := ev.advance(n, states)
			switch {
			case hit && !ev.anchorCanMatch(n), !hit && next == 0:
				return
			case hit:
				next = 0 // local enumeration reads the whole anchor
			}
			states = next
		}
		col := n.Summary().KidBlooms
		for i, k := range n.Children() {
			if states == 0 || col == nil || ev.textAdmits(col[i], states) {
				walk(k, states)
			}
		}
	}
	walk(t.Root(), stateSet(1))
	return nil
}
