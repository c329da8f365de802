package integrate

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/dtd"
	"repro/internal/oracle"
	"repro/internal/pxml"
)

// edge is a candidate match between child i of source A and child j of
// source B (indices into the certain child lists).
type edge struct {
	i, j int
	p    float64
	must bool
}

// integrateChildren integrates the child sequences of two matched elements
// and returns the choice-point children of the merged element.
func (it *integrator) integrateChildren(x, y *pxml.Node) ([]*pxml.Node, error) {
	certA, wrapA, uncA := splitChildren(x)
	certB, wrapB, uncB := splitChildren(y)

	// Candidate pairs: cross-source, same tag, not ruled out. Within-source
	// siblings are never candidates (the paper's second generic rule), and
	// neither is a pair the rules' blocking keys — derived once per child
	// here, not per pair — prove cannot-match: it is never put to the
	// Oracle. Every other pair is decided when it is met, from inputs
	// prepared once per child, and becomes an edge unless the verdict is
	// cannot-match. Under oracle.Strict the first error in (i, j) order is
	// returned, once every pair is decided and counted.
	var edges []edge
	var firstErr error
	pairing := it.cfg.Oracle.Pair(certA, certB)
	for i, xa := range certA {
		for j, yb := range certB {
			if xa.Tag() != yb.Tag() || pairing.Blocked(i, j) {
				continue
			}
			v, err := it.decide(pairing, i, j)
			if err != nil {
				firstErr = cmp.Or(firstErr, err)
				continue
			}
			if v.Decision != oracle.CannotMatch {
				edges = append(edges, edge{i: i, j: j, p: v.P, must: v.Decision == oracle.MustMatch})
			}
		}
	}
	pairing.Release()
	if firstErr != nil {
		return nil, firstErr
	}

	comps := it.components(edges, len(certA))
	inCompA := make(map[int]int, len(certA)) // A index -> component index
	inCompB := make(map[int]int, len(certB))
	for ci, c := range comps {
		for _, i := range c.aIdx {
			inCompA[i] = ci
		}
		for _, j := range c.bIdx {
			inCompB[j] = ci
		}
	}

	// DTD budgets: for each tag with a bounded maximum under the parent,
	// how many items may all components of that tag plus the certain
	// singles produce in the best case. An infeasible combination (even
	// the best case exceeds a bound) makes the whole merge impossible.
	budget, err := it.tagBudgets(x.Tag(), certA, certB, uncA, uncB, comps, inCompA, inCompB)
	if err != nil {
		return nil, err
	}

	// Components are independent by construction (that is the paper's
	// compactness argument): each becomes one choice point, emitted in
	// component order. Every component is built, and the error of the
	// lowest failing one is returned: a caller may absorb that error as an
	// incompatible merge, and the counters must not depend on which
	// component failed first.
	choices := make([]*pxml.Node, len(comps))
	for ci, c := range comps {
		choice, err := it.buildChoice(c, certA, certB, budget[ci])
		if err != nil {
			firstErr = cmp.Or(firstErr, err)
		}
		choices[ci] = choice
	}
	if firstErr != nil {
		return nil, firstErr
	}

	var out []*pxml.Node
	emitted := make([]bool, len(comps))
	for i, xa := range certA {
		ci, ok := inCompA[i]
		if !ok {
			// Untouched by the other source: spliced verbatim, no merge.
			it.stats.SplicedChildren++
			out = append(out, splice(wrapA[i], xa))
			continue
		}
		if emitted[ci] {
			continue
		}
		emitted[ci] = true
		out = append(out, choices[ci])
	}
	for j, yb := range certB {
		if _, ok := inCompB[j]; ok {
			continue
		}
		it.stats.SplicedChildren++
		out = append(out, splice(wrapB[j], yb))
	}
	// Genuine choice points of the inputs are preserved, not re-matched:
	// integration of probabilistic inputs keeps their uncertainty intact.
	out = append(out, uncA...)
	out = append(out, uncB...)
	return out, nil
}

// splitChildren separates an element's certainly-present child elements
// from its genuine choice points. wrap[i] is the trivial choice point that
// holds certain[i] and nothing else, nil when the element shares its choice
// point with siblings.
func splitChildren(elem *pxml.Node) (certain, wrap, uncertain []*pxml.Node) {
	for _, prob := range elem.Children() {
		if len(prob.Children()) != 1 {
			uncertain = append(uncertain, prob)
			continue
		}
		poss := prob.Child(0)
		var own *pxml.Node
		if poss.NumChildren() == 1 && poss.Prob() == 1 {
			own = prob
		}
		for _, el := range poss.Children() {
			certain = append(certain, el)
			wrap = append(wrap, own)
		}
	}
	return certain, wrap, uncertain
}

// splice carries a certain child into the result inside the choice point it
// came in, so that what an earlier pass cached on that node (normal form,
// summary) is found again; a child without one of its own gets a new one.
func splice(wrap, elem *pxml.Node) *pxml.Node {
	if wrap != nil {
		return wrap
	}
	return pxml.Certain(elem)
}

// component is a connected group of candidate edges; it becomes one choice
// point in the merged element.
type component struct {
	aIdx  []int // A-side member indices, ascending
	bIdx  []int // B-side member indices, ascending
	edges []edge
}

// components groups edges into connected components (or a single component
// when factorization is disabled for the ablation experiment). Components
// are ordered by their smallest A index; edge lists preserve discovery
// order, so the whole construction is deterministic.
func (it *integrator) components(edges []edge, nA int) []component {
	if len(edges) == 0 {
		return nil
	}
	if it.cfg.DisableComponentFactorization {
		c := component{edges: edges}
		seenA, seenB := map[int]bool{}, map[int]bool{}
		for _, e := range edges {
			if !seenA[e.i] {
				seenA[e.i] = true
				c.aIdx = append(c.aIdx, e.i)
			}
			if !seenB[e.j] {
				seenB[e.j] = true
				c.bIdx = append(c.bIdx, e.j)
			}
		}
		slices.Sort(c.aIdx)
		slices.Sort(c.bIdx)
		it.noteComponent(c)
		return []component{c}
	}
	// Union-find over node ids: A nodes are i, B nodes are nA+j.
	parent := map[int]int{}
	var find func(v int) int
	find = func(v int) int {
		p, ok := parent[v]
		if !ok || p == v {
			parent[v] = v
			return v
		}
		r := find(p)
		parent[v] = r
		return r
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for _, e := range edges {
		union(e.i, nA+e.j)
	}
	group := map[int]*component{}
	var order []int
	for _, e := range edges {
		r := find(e.i)
		c, ok := group[r]
		if !ok {
			c = &component{}
			group[r] = c
			order = append(order, r)
		}
		c.edges = append(c.edges, e)
	}
	out := make([]component, 0, len(order))
	for _, r := range order {
		c := group[r]
		seenA, seenB := map[int]bool{}, map[int]bool{}
		for _, e := range c.edges {
			if !seenA[e.i] {
				seenA[e.i] = true
				c.aIdx = append(c.aIdx, e.i)
			}
			if !seenB[e.j] {
				seenB[e.j] = true
				c.bIdx = append(c.bIdx, e.j)
			}
		}
		slices.Sort(c.aIdx)
		slices.Sort(c.bIdx)
		it.noteComponent(*c)
		out = append(out, *c)
	}
	return out
}

func (it *integrator) noteComponent(c component) {
	it.stats.Components++
	it.stats.LargestComponent = max(it.stats.LargestComponent, len(c.edges))
}

// tagBudgets computes, for every tag whose maximum occurrence under the
// parent is bounded, how many component items of that tag are still
// admissible: Max(tag) − certain singles − best-case contribution of the
// other members. The result maps component index and tag to the allowed
// item count for that component; absent entries mean unconstrained. It
// returns ErrIncompatible when even the best case exceeds a bound, which
// happens e.g. when two unmatchable phones meet a one-phone schema.
func (it *integrator) tagBudgets(parentTag string, certA, certB, uncA, uncB []*pxml.Node,
	comps []component, inCompA, inCompB map[int]int) (map[int]map[string]int, error) {
	if it.cfg.Schema == nil {
		return nil, nil
	}
	// Bounded tags among all prospective children.
	bounded := map[string]int{}
	noteTag := func(tag string) {
		if _, ok := bounded[tag]; ok {
			return
		}
		if max := it.cfg.Schema.MaxOccurs(parentTag, tag); max != dtd.Unbounded {
			bounded[tag] = max
		}
	}
	for _, xa := range certA {
		noteTag(xa.Tag())
	}
	for _, yb := range certB {
		noteTag(yb.Tag())
	}
	if len(bounded) == 0 {
		return nil, nil
	}
	tagsOfComp := make([]map[string]bool, len(comps))
	for ci, c := range comps {
		tagsOfComp[ci] = map[string]bool{}
		for _, i := range c.aIdx {
			tagsOfComp[ci][certA[i].Tag()] = true
		}
	}
	// Fixed contributions per tag: certain singles plus the best-case
	// (minimum) counts of preserved uncertain choice points.
	fixed := map[string]int{}
	for i, xa := range certA {
		if _, ok := inCompA[i]; !ok {
			fixed[xa.Tag()]++
		}
	}
	for j, yb := range certB {
		if _, ok := inCompB[j]; !ok {
			fixed[yb.Tag()]++
		}
	}
	for _, unc := range append(append([]*pxml.Node{}, uncA...), uncB...) {
		best := map[string]int{}
		first := true
		for _, poss := range unc.Children() {
			local := map[string]int{}
			for _, el := range poss.Children() {
				local[el.Tag()]++
			}
			if first {
				best = local
				first = false
				continue
			}
			for tag := range best {
				if local[tag] < best[tag] {
					best[tag] = local[tag]
				}
			}
			for tag := range local {
				if _, ok := best[tag]; !ok {
					best[tag] = 0
				}
			}
		}
		for tag, n := range best {
			fixed[tag] += n
		}
	}
	// Minimum items each component can produce per tag (maximal matching).
	minItems := make([]map[string]int, len(comps))
	for ci, c := range comps {
		minItems[ci] = componentMinItems(c, certA, certB)
	}
	// Feasibility: even the best case must respect every bound.
	for tag, max := range bounded {
		total := fixed[tag]
		for ci := range comps {
			total += minItems[ci][tag]
		}
		if total > max {
			return nil, fmt.Errorf("%w: element <%s> would keep %d <%s> children in every world, schema allows %d",
				ErrIncompatible, parentTag, total, tag, max)
		}
	}
	budgets := make(map[int]map[string]int)
	for ci := range comps {
		for tag := range tagsOfComp[ci] {
			max, ok := bounded[tag]
			if !ok {
				continue
			}
			allowed := max - fixed[tag]
			for cj := range comps {
				if cj == ci {
					continue
				}
				allowed -= minItems[cj][tag]
			}
			if budgets[ci] == nil {
				budgets[ci] = map[string]int{}
			}
			budgets[ci][tag] = allowed
		}
	}
	return budgets, nil
}

// componentMinItems returns the minimum number of resulting items per tag a
// component can produce: members minus the maximum matching size among
// edges of that tag.
func componentMinItems(c component, certA, certB []*pxml.Node) map[string]int {
	counts := map[string]int{}
	for _, i := range c.aIdx {
		counts[certA[i].Tag()]++
	}
	for _, j := range c.bIdx {
		counts[certB[j].Tag()]++
	}
	for tag := range counts {
		counts[tag] -= maxMatchingSize(c, tag, certA)
	}
	return counts
}

// maxMatchingSize computes the maximum bipartite matching among the
// component's edges whose endpoints have the given tag, via augmenting
// paths (components are small).
func maxMatchingSize(c component, tag string, certA []*pxml.Node) int {
	adj := map[int][]int{}
	for _, e := range c.edges {
		if certA[e.i].Tag() != tag {
			continue
		}
		adj[e.i] = append(adj[e.i], e.j)
	}
	matchB := map[int]int{} // B index -> A index
	var try func(i int, seen map[int]bool) bool
	try = func(i int, seen map[int]bool) bool {
		for _, j := range adj[i] {
			if seen[j] {
				continue
			}
			seen[j] = true
			if prev, ok := matchB[j]; !ok || try(prev, seen) {
				matchB[j] = i
				return true
			}
		}
		return false
	}
	size := 0
	for i := range adj {
		if try(i, map[int]bool{}) {
			size++
		}
	}
	return size
}
