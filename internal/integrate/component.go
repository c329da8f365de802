package integrate

import (
	"fmt"

	"repro/internal/pxml"
)

// matching is one consistent set of chosen edges with its prior weight.
type matching struct {
	chosen []int // indices into component.edges
	w      float64
}

// buildChoice turns one candidate component into a probability node whose
// alternatives are the component's consistent matchings (expanded over
// value-conflict variants of merged pairs), weighted and normalized.
// budget caps the item counts of each of tags (nil = unconstrained).
func (it *integrator) buildChoice(c component, certA, certB []*pxml.Node, tags []string, budget []int) (*pxml.Node, error) {
	matchings, truncated, err := it.enumerateMatchings(c)
	if err != nil {
		return nil, err
	}
	if truncated {
		it.stats.TruncatedComponents++
	}
	it.stats.MatchingsEnumerated += len(matchings)

	// DTD pruning: a matching that leaves too many same-tag items in the
	// merged element, even under best-case choices elsewhere, is rejected.
	var kept []matching
	anyDTDPruned := false
	for _, m := range matchings {
		if violatesBudget(c, m, certA, certB, tags, budget) {
			it.stats.MatchingsPruned++
			anyDTDPruned = true
			continue
		}
		kept = append(kept, m)
	}
	if len(kept) == 0 {
		if anyDTDPruned {
			return nil, fmt.Errorf("%w: schema rejects every matching of the <%s> group", ErrIncompatible, componentTag(c, certA))
		}
		return nil, fmt.Errorf("%w: in the <%s> group", ErrMustConflict, componentTag(c, certA))
	}

	// Merge every distinct pair any kept matching matches before expanding:
	// the expansion below may stop early (an explosion under truncation),
	// and the merges it would then skip still count in the Stats.
	for _, m := range kept {
		for _, ei := range m.chosen {
			e := c.edges[ei]
			_, _ = it.mergePair(certA[e.i], certB[e.j])
		}
	}

	// Expand matchings into possibilities. A matched pair may have several
	// merged variants (value conflicts); the cartesian product over pairs
	// multiplies out inside the matching's weight. Pairs that turn out to
	// be unmergeable (recursive schema violations) invalidate the matching.
	type possibility struct {
		elems []*pxml.Node
		w     float64
	}
	var poss []possibility
	total := 0.0
	anyIncompatible := false
	for _, m := range kept {
		matchedA := map[int]int{} // A index -> B index
		usedB := map[int]bool{}
		for _, ei := range m.chosen {
			matchedA[c.edges[ei].i] = c.edges[ei].j
			usedB[c.edges[ei].j] = true
		}
		// Build slots in deterministic order: A members first (merged or
		// original), then unmatched B members.
		type slot struct {
			fixed *pxml.Node
			alts  []weightedElem
		}
		slots := make([]slot, 0, len(c.aIdx)+len(c.bIdx))
		incompatible := false
		for _, i := range c.aIdx {
			if j, ok := matchedA[i]; ok {
				alts, err := it.mergePair(certA[i], certB[j])
				if err != nil {
					incompatible = true
					break
				}
				slots = append(slots, slot{alts: alts})
				continue
			}
			slots = append(slots, slot{fixed: certA[i]})
		}
		if incompatible {
			anyIncompatible = true
			it.stats.MatchingsPruned++
			continue
		}
		for _, j := range c.bIdx {
			if !usedB[j] {
				slots = append(slots, slot{fixed: certB[j]})
			}
		}
		// Cartesian expansion over slot alternatives.
		elems := make([]*pxml.Node, len(slots))
		var expand func(si int, w float64) error
		expand = func(si int, w float64) error {
			if si == len(slots) {
				if len(poss)+1 > maxAlternatives {
					return fmt.Errorf("%w: more than %d alternatives in the <%s> group",
						ErrExplosion, maxAlternatives, componentTag(c, certA))
				}
				cp := make([]*pxml.Node, len(elems))
				copy(cp, elems)
				poss = append(poss, possibility{elems: cp, w: w})
				total += w
				return nil
			}
			s := slots[si]
			if s.fixed != nil {
				elems[si] = s.fixed
				return expand(si+1, w)
			}
			for _, alt := range s.alts {
				elems[si] = alt.elem
				if err := expand(si+1, w*alt.w); err != nil {
					return err
				}
			}
			return nil
		}
		if err := expand(0, m.w); err != nil {
			if it.cfg.TruncateOnExplosion {
				it.stats.TruncatedComponents++
				break
			}
			return nil, err
		}
	}
	if len(poss) == 0 || total <= 0 {
		if anyIncompatible {
			return nil, fmt.Errorf("%w: every matching of the <%s> group fails recursively", ErrIncompatible, componentTag(c, certA))
		}
		return nil, fmt.Errorf("%w: in the <%s> group", ErrMustConflict, componentTag(c, certA))
	}
	it.stats.PossibilitiesBuilt += len(poss)
	nodes := make([]*pxml.Node, len(poss))
	for i, p := range poss {
		nodes[i] = pxml.NewPoss(p.w/total, p.elems...)
	}
	return pxml.NewProb(nodes...), nil
}

func componentTag(c component, certA []*pxml.Node) string {
	if len(c.aIdx) > 0 {
		return certA[c.aIdx[0]].Tag()
	}
	return "?"
}

// violatesBudget reports whether the matching's item counts exceed the
// component's per-tag budget.
func violatesBudget(c component, m matching, certA, certB []*pxml.Node, tags []string, budget []int) bool {
	for t, allowed := range budget {
		if allowed == unconstrained {
			continue
		}
		items := members(c, tags[t], certA, certB)
		for _, ei := range m.chosen {
			if certA[c.edges[ei].i].Tag() == tags[t] {
				items--
			}
		}
		if items > allowed {
			return true
		}
	}
	return false
}

// enumerateMatchings lists every injective matching of the component's
// edges with weight Π_{e∈M} p(e) · Π_{e∉M} (1−p(e)), skipping zero-weight
// branches (a must edge left out). The empty matching is included (unless
// a must edge forces otherwise). Enumeration order is deterministic.
func (it *integrator) enumerateMatchings(c component) ([]matching, bool, error) {
	maxM := it.cfg.maxMatchings()
	var out []matching
	usedA := map[int]bool{}
	usedB := map[int]bool{}
	chosen := make([]int, 0, len(c.edges))
	truncated := false
	var rec func(ei int, w float64) error
	rec = func(ei int, w float64) error {
		if truncated {
			return nil
		}
		if ei == len(c.edges) {
			if len(out) >= maxM {
				if it.cfg.TruncateOnExplosion {
					truncated = true
					return nil
				}
				return fmt.Errorf("%w: component with %d edges exceeds %d matchings",
					ErrExplosion, len(c.edges), maxM)
			}
			cp := make([]int, len(chosen))
			copy(cp, chosen)
			out = append(out, matching{chosen: cp, w: w})
			return nil
		}
		e := c.edges[ei]
		// Include the edge if both endpoints are free.
		if !usedA[e.i] && !usedB[e.j] && e.p > 0 {
			usedA[e.i], usedB[e.j] = true, true
			chosen = append(chosen, ei)
			if err := rec(ei+1, w*e.p); err != nil {
				return err
			}
			chosen = chosen[:len(chosen)-1]
			usedA[e.i], usedB[e.j] = false, false
		}
		// Exclude the edge. A must edge contributes factor (1−1) = 0 when
		// excluded — a world in which deep-equal elements are distinct
		// rwos is impossible — so that branch is pruned outright.
		if e.must {
			return nil
		}
		return rec(ei+1, w*(1-e.p))
	}
	if err := rec(0, 1); err != nil {
		return nil, false, err
	}
	return out, truncated, nil
}
