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
//
// The conditioner prunes with the exact executor's summary tests, the
// rejected value required of the answer step as one more literal, so it
// enters only the subtrees that can yield the value. Every node the event
// cannot touch comes back as itself, choice points included, and a value
// no world yields returns t itself with a prior of exactly 1.
func ConditionAbsent(t *pxml.Tree, q *Query, value string, localLimit int) (*pxml.Tree, float64, error) {
	ev, err := newExactEval(q, localLimit)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrTooComplex, err)
	}
	ev.need = stepNeeds(q, value)
	return ev.conditionAbsent(t, value)
}

// conditionAbsent is ConditionAbsent on the evaluator of its query, gated
// by its needs, or ungated where they are nil.
func (e *exactEval) conditionAbsent(t *pxml.Tree, value string) (*pxml.Tree, float64, error) {
	e.prepare(t)
	c := &conditioner{ev: e, value: value, memo: make(map[localKey]condResult)}
	root, p, err := c.cond(t.Root(), stateSet(1))
	if err != nil {
		return nil, 0, err
	}
	if p <= 0 || root == nil {
		return nil, 0, ErrContradiction
	}
	if root == t.Root() {
		return t, 1, nil
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
// means the event is impossible given this subtree exists. A subtree the
// event cannot touch — one that fails canMatch or yields the value in no
// world — is returned as itself with the factor 1, and only such a one.
func (c *conditioner) cond(n *pxml.Node, states stateSet) (*pxml.Node, float64, error) {
	if states == 0 || !c.ev.canMatch(n, states) {
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
		return c.condChoice(n, states)

	case pxml.KindPoss:
		kids, f, err := c.condKids(n, states)
		if err != nil || f <= 0 {
			return nil, 0, err
		}
		if kids == nil {
			return n, f, nil
		}
		return pxml.NewPoss(n.Prob(), kids...), f, nil

	default: // element
		next, hit := c.ev.advance(n, states)
		if hit {
			if !c.ev.anchorCanMatch(n) {
				// No world of the anchor yields the rejected value: what
				// condAnchor finds by enumerating them.
				return n, 1, nil
			}
			return c.condAnchor(n, states)
		}
		kids, f, err := c.condKids(n, next)
		if err != nil || f <= 0 {
			return nil, 0, err
		}
		if kids == nil {
			return n, f, nil
		}
		return pxml.NewElem(n.Tag(), n.Text(), kids...), f, nil
	}
}

// condChoice conditions the alternatives of a choice point and divides the
// survivors by their total weight. A choice point whose alternatives all
// come back as themselves is kept as it is with the factor 1, not rebuilt
// and not divided by its float sum.
func (c *conditioner) condChoice(n *pxml.Node, states stateSet) (*pxml.Node, float64, error) {
	type alt struct {
		poss *pxml.Node
		w    float64
	}
	kids := n.Children()
	var alts []alt // nil while every alternative comes back as itself
	total := 0.0
	for i, poss := range kids {
		np, f, err := c.cond(poss, states)
		if err != nil {
			return nil, 0, err
		}
		if alts == nil {
			if np == poss {
				continue
			}
			alts = make([]alt, 0, len(kids))
			for _, k := range kids[:i] {
				alts = append(alts, alt{poss: k, w: k.Prob()})
				total += k.Prob()
			}
		}
		w := poss.Prob() * f
		if w <= 0 || np == nil {
			continue
		}
		alts = append(alts, alt{poss: np, w: w})
		total += w
	}
	if alts == nil {
		return n, 1, nil
	}
	if total <= 0 {
		return nil, 0, nil
	}
	nodes := make([]*pxml.Node, len(alts))
	for i, a := range alts {
		nodes[i] = pxml.NewPoss(a.w/total, a.poss.Children()...)
	}
	return pxml.NewProb(nodes...), total, nil
}

// condKids conditions the independent children of n — the elements of a
// possibility or the choice points of an element that is not an anchor —
// in the given states. It returns the new children, nil when every child
// came back as itself, and the product of the children's factors, 0 when
// the event is impossible given n. A child whose entry in n's column of
// fingerprints (Summary.KidBlooms) fails every pending chain fails
// canMatch, so it is kept without reading its summary, as productDist
// skips it.
func (c *conditioner) condKids(n *pxml.Node, states stateSet) ([]*pxml.Node, float64, error) {
	if states == 0 {
		return nil, 1, nil
	}
	var col []pxml.Bloom
	if c.ev.need != nil {
		col = n.Summary().KidBlooms
	}
	f := 1.0
	kids := n.Children()
	var newKids []*pxml.Node
	for i, k := range kids {
		nk, kf := k, 1.0
		if col == nil || c.ev.textAdmits(col[i], states) {
			var err error
			if nk, kf, err = c.cond(k, states); err != nil {
				return nil, 0, err
			}
			if kf <= 0 || nk == nil {
				return nil, 0, nil
			}
		}
		f *= kf
		if nk != k && newKids == nil {
			newKids = make([]*pxml.Node, len(kids))
			copy(newKids, kids[:i])
		}
		if newKids != nil {
			newKids[i] = nk
		}
	}
	return newKids, f, nil
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
