package query

import (
	"fmt"
	"math/big"

	"repro/internal/pxml"
	"repro/internal/worlds"
)

// CountWorld returns the number of result nodes the query selects in one
// certain world (occurrences, not distinct values).
func CountWorld(q *Query, rootElems []*pxml.Node) int {
	w := certainView(rootElems...)
	w.eval(q, stateSet(1))
	return w.hits
}

// ExpectedCount returns the expected number of result nodes over all
// possible worlds: Σ_w P(w)·|results(w)|. By linearity of expectation this
// decomposes exactly over the layered tree — mutually exclusive
// alternatives contribute weighted sums, independent siblings add — with
// local enumeration only inside anchor subtrees (predicate scopes), so it
// works on documents whose world count is astronomically large.
func ExpectedCount(t *pxml.Tree, q *Query, localLimit int) (float64, error) {
	ev, err := newExactEval(q, localLimit)
	if err != nil {
		return 0, err
	}
	e := &countEval{ev: ev, memo: make(map[localKey]float64)}
	return e.count(t.Root(), stateSet(1))
}

type countEval struct {
	ev   *exactEval
	memo map[localKey]float64
}

func (e *countEval) count(n *pxml.Node, states stateSet) (float64, error) {
	if states == 0 {
		return 0, nil
	}
	key := localKey{e: n, s: states}
	if c, ok := e.memo[key]; ok {
		return c, nil
	}
	var c float64
	var err error
	switch n.Kind() {
	case pxml.KindProb:
		for _, poss := range n.Children() {
			pc, perr := e.count(poss, states)
			if perr != nil {
				return 0, perr
			}
			c += poss.Prob() * pc
		}
	case pxml.KindPoss:
		for _, el := range n.Children() {
			ec, eerr := e.count(el, states)
			if eerr != nil {
				return 0, eerr
			}
			c += ec
		}
	default: // element
		next, hit := e.ev.advance(n, states)
		if hit {
			c, err = e.localCount(n, states)
			if err != nil {
				return 0, err
			}
		} else {
			for _, k := range n.Children() {
				kc, kerr := e.count(k, next)
				if kerr != nil {
					return 0, kerr
				}
				c += kc
			}
		}
	}
	e.memo[key] = c
	return c, nil
}

// localCount walks an anchor subtree's worlds and returns the conditional
// expected result count.
func (e *countEval) localCount(elem *pxml.Node, states stateSet) (float64, error) {
	if err := e.ev.checkLocalLimit(elem); err != nil {
		return 0, err
	}
	w := &e.ev.walk
	w.reserve(elem)
	total := 0.0
	w.eachWorld(elem, func(p float64) bool {
		w.eval(e.ev.q, states)
		total += p * float64(w.hits)
		return true
	})
	return total, nil
}

// ExpectedCountEnumerate computes the expected result count by full world
// enumeration; the test oracle for ExpectedCount.
func ExpectedCountEnumerate(t *pxml.Tree, q *Query, maxWorlds int) (float64, error) {
	wc := t.WorldCount()
	if maxWorlds > 0 && wc.Cmp(big.NewInt(int64(maxWorlds))) > 0 {
		return 0, fmt.Errorf("%w: %s > %d", worlds.ErrTooManyWorlds, wc.String(), maxWorlds)
	}
	total := 0.0
	worlds.Enumerate(t, func(w worlds.World) bool {
		total += w.P * float64(CountWorld(q, w.Elements))
		return true
	})
	return total, nil
}
