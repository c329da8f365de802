package query

import (
	"errors"
	"fmt"
	"math/big"

	"repro/internal/pxml"
)

// Conditioning implements the semantics behind user feedback (paper §I,
// §VII and ref [4]): feedback on query answers is traced back to possible
// worlds, and worlds contradicting the feedback are removed, which
// incrementally improves the integration.

// ErrContradiction is returned when feedback would eliminate every
// possible world.
var ErrContradiction = errors.New("query: feedback contradicts all possible worlds")

// ErrTooComplex is returned when conditioning exceeds its enumeration
// budgets.
var ErrTooComplex = errors.New("query: conditioning exceeds enumeration limits")

// ConditionAbsent conditions the document on the event "the query yields
// no answer with the given value" — the effect of a user rejecting an
// answer. Because the event is a conjunction of per-subtree events over
// independent choice points, the conditional distribution stays
// tree-factorized: choice probabilities are reweighted in place, and only
// anchor subtrees (where predicate/value correlations live) are rewritten
// by local enumeration. It returns the conditioned tree and the prior
// probability of the event.
func ConditionAbsent(t *pxml.Tree, q *Query, value string, localLimit int) (*pxml.Tree, float64, error) {
	ev, err := newExactEval(q, localLimit)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrTooComplex, err)
	}
	return ev.conditionAbsent(t, value)
}

// conditionAbsent is ConditionAbsent on the evaluator of its query.
func (e *exactEval) conditionAbsent(t *pxml.Tree, value string) (*pxml.Tree, float64, error) {
	c := &conditioner{ev: e, value: value, memo: make(map[localKey]condResult)}
	root, p, err := c.cond(t.Root(), stateSet(1))
	if err != nil {
		return nil, 0, err
	}
	if p <= 0 || root == nil {
		return nil, 0, ErrContradiction
	}
	nt, err := pxml.NewTree(root)
	if err != nil {
		return nil, 0, fmt.Errorf("query: conditioning produced invalid tree: %v", err)
	}
	return nt, p, nil
}

type condResult struct {
	node *pxml.Node
	p    float64
	err  error
}

type conditioner struct {
	ev    *exactEval
	value string
	memo  map[localKey]condResult
}

// cond returns the conditioned version of the subtree plus the probability
// that the subtree produces no `value` answer. A nil node with p == 0
// means the event is impossible given this subtree exists.
func (c *conditioner) cond(n *pxml.Node, states stateSet) (*pxml.Node, float64, error) {
	if states == 0 {
		return n, 1, nil
	}
	key := localKey{e: n, s: states}
	if r, ok := c.memo[key]; ok {
		return r.node, r.p, r.err
	}
	node, p, err := c.condUncached(n, states)
	c.memo[key] = condResult{node: node, p: p, err: err}
	return node, p, err
}

func (c *conditioner) condUncached(n *pxml.Node, states stateSet) (*pxml.Node, float64, error) {
	switch n.Kind() {
	case pxml.KindProb:
		type alt struct {
			poss *pxml.Node
			w    float64
		}
		var alts []alt
		total := 0.0
		for _, poss := range n.Children() {
			np, f, err := c.cond(poss, states)
			if err != nil {
				return nil, 0, err
			}
			w := poss.Prob() * f
			if w <= 0 || np == nil {
				continue
			}
			alts = append(alts, alt{poss: np, w: w})
			total += w
		}
		if total <= 0 {
			return nil, 0, nil
		}
		nodes := make([]*pxml.Node, len(alts))
		for i, a := range alts {
			nodes[i] = pxml.NewPoss(a.w/total, a.poss.Children()...)
		}
		return pxml.NewProb(nodes...), total, nil

	case pxml.KindPoss:
		f := 1.0
		kids := n.Children()
		var newKids []*pxml.Node
		for i, el := range kids {
			ne, ef, err := c.cond(el, states)
			if err != nil {
				return nil, 0, err
			}
			if ef <= 0 || ne == nil {
				return nil, 0, nil
			}
			f *= ef
			if ne != el && newKids == nil {
				newKids = make([]*pxml.Node, len(kids))
				copy(newKids, kids[:i])
			}
			if newKids != nil {
				newKids[i] = ne
			}
		}
		if newKids == nil {
			return n, f, nil
		}
		return pxml.NewPoss(n.Prob(), newKids...), f, nil

	default: // element
		next, hit := c.ev.advance(n, states)
		if hit {
			if !c.ev.anchorCanMatch(n) {
				// No world of the anchor yields any answer, the rejected
				// one included: what condAnchor finds by enumerating them.
				return n, 1, nil
			}
			return c.condAnchor(n, states)
		}
		if next == 0 {
			return n, 1, nil
		}
		f := 1.0
		kids := n.Children()
		var newKids []*pxml.Node
		for i, prob := range kids {
			np, pf, err := c.cond(prob, next)
			if err != nil {
				return nil, 0, err
			}
			if pf <= 0 || np == nil {
				return nil, 0, nil
			}
			f *= pf
			if np != prob && newKids == nil {
				newKids = make([]*pxml.Node, len(kids))
				copy(newKids, kids[:i])
			}
			if newKids != nil {
				newKids[i] = np
			}
		}
		if newKids == nil {
			return n, f, nil
		}
		return pxml.NewElem(n.Tag(), n.Text(), newKids...), f, nil
	}
}

// condAnchor conditions an anchor element by local world enumeration:
// worlds of the subtree that produce the rejected value are removed and
// the element is rebuilt as an explicit choice over the survivors, which
// are the only worlds materialized.
func (c *conditioner) condAnchor(e *pxml.Node, states stateSet) (*pxml.Node, float64, error) {
	if wc := e.Summary().Worlds; !wc.IsInt64() || wc.Int64() > int64(c.ev.localLimit) {
		return nil, 0, fmt.Errorf("%w: anchor subtree <%s> has %s local worlds", ErrTooComplex, e.Tag(), wc.String())
	}
	type surv struct {
		elems []*pxml.Node
		p     float64
	}
	var kept []surv
	total := 0.0
	w := &c.ev.walk
	w.reserve(e)
	w.eachWorld(e, func(p float64) bool {
		w.eval(c.ev.q, states)
		if !w.yields(c.value) {
			// Slot 0 is the occurrence of e itself.
			kept = append(kept, surv{elems: w.materializeKids(0), p: p})
			total += p
		}
		return true
	})
	if total <= 0 {
		return nil, 0, nil
	}
	if 1-total < 1e-12 {
		return e, 1, nil // event certain here, keep the compact form
	}
	poss := make([]*pxml.Node, len(kept))
	for i, s := range kept {
		poss[i] = pxml.NewPoss(s.p/total, s.elems...)
	}
	var kids []*pxml.Node
	if len(poss) > 0 {
		kids = append(kids, pxml.NewProb(poss...))
	}
	return pxml.NewElem(e.Tag(), e.Text(), kids...), total, nil
}

// ConditionPresent conditions the document on the event "the query yields
// the given value" — a user confirming an answer. The event couples
// independent branches, so the result is built by filtering the explicit
// world set, of which only the kept worlds are materialized; the document
// must have at most maxWorlds possible worlds.
// It returns the conditioned tree and the prior probability of the event.
func ConditionPresent(t *pxml.Tree, q *Query, value string, maxWorlds int) (*pxml.Tree, float64, error) {
	if maxWorlds <= 0 {
		maxWorlds = defaultEnumWorldLimit
	}
	wc := t.WorldCount()
	if !wc.IsInt64() || wc.Cmp(big.NewInt(int64(maxWorlds))) > 0 {
		return nil, 0, fmt.Errorf("%w: %s possible worlds (limit %d)", ErrTooComplex, wc.String(), maxWorlds)
	}
	type surv struct {
		elems []*pxml.Node
		p     float64
	}
	var kept []surv
	total := 0.0
	w := &walker{}
	w.eachWorld(t.Root(), func(p float64) bool {
		w.eval(q, stateSet(1))
		if w.yields(value) {
			kept = append(kept, surv{elems: w.materializeWorld(), p: p})
			total += p
		}
		return true
	})
	if total <= 0 {
		return nil, 0, ErrContradiction
	}
	poss := make([]*pxml.Node, len(kept))
	for i, s := range kept {
		poss[i] = pxml.NewPoss(s.p/total, s.elems...)
	}
	nt := pxml.MustTree(pxml.NewProb(poss...))
	// Merge worlds that materialized identically.
	nt, err := nt.Normalize()
	if err != nil {
		return nil, 0, err
	}
	return nt, total, nil
}
