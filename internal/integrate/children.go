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
	certA, ownA, uncA := splitChildren(x)
	certB, ownB, uncB := splitChildren(y)
	root := x == it.rootA

	// Candidate pairs: cross-source, same tag, not ruled out. Within-source
	// siblings are never candidates (the paper's second generic rule), and
	// neither is a pair the rules' blocking keys prove cannot-match: the
	// Pairing joins the two lists on their keys and enumerates only the
	// pairs whose keys agree or are absent, in (i, j) order, so a pair it
	// rules out costs nothing and is never put to the Oracle. Every other
	// pair is decided when it is met, from inputs prepared once per element
	// (and kept in the Oracle's table across calls, see Retain below), and
	// becomes an edge unless the verdict is cannot-match. Under oracle.Strict
	// the first error in (i, j) order is returned, once every pair is
	// decided and counted.
	var edges []edge
	var firstErr error
	pairing := it.cfg.Oracle.Pair(certA, certB)
	defer pairing.Release()
	calls := it.stats.OracleCalls
	for i, xa := range certA {
		for _, j := range pairing.Candidates(i) {
			if xa.Tag() != certB[j].Tag() {
				continue
			}
			if root {
				it.work.pairs++
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
	if root {
		it.work.calls = it.stats.OracleCalls - calls
	}
	if firstErr != nil {
		return nil, firstErr
	}

	comps := it.components(edges, len(certA))
	compA, compB := inComponent(comps, len(certA), len(certB))

	// DTD budgets: for each tag with a bounded maximum under the parent,
	// how many items may all components of that tag plus the certain
	// singles produce in the best case. An infeasible combination (even
	// the best case exceeds a bound) makes the whole merge impossible.
	budget, err := it.tagBudgets(x, y, certA, certB, uncA, uncB, comps, compA, compB)
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

	// At the root, from records where each child of the result sat among
	// x's children (-1 for a new one): the merged element's summary is
	// derived from x's through it (see Integrate).
	out := make([]*pxml.Node, 0, x.NumChildren()+y.NumChildren())
	var from []int
	if root {
		from = make([]int, 0, cap(out))
	}
	emit := func(n *pxml.Node, at int) {
		out = append(out, n)
		if root {
			from = append(from, at)
		}
	}
	emitted := make([]bool, len(comps))
	for i, xa := range certA {
		ci := compA[i]
		if ci < 0 {
			// Untouched by the other source: spliced verbatim, no merge.
			it.stats.SplicedChildren++
			emit(splice(x, ownA[i], xa), ownA[i])
			continue
		}
		if emitted[ci] {
			continue
		}
		emitted[ci] = true
		emit(choices[ci], -1)
	}
	for j, yb := range certB {
		if compB[j] < 0 {
			it.stats.SplicedChildren++
			emit(splice(y, ownB[j], yb), -1)
		}
	}
	// Genuine choice points of the inputs are preserved, not re-matched:
	// integration of probabilistic inputs keeps their uncertainty intact.
	for _, u := range uncA {
		emit(x.Child(u), u)
	}
	for _, u := range uncB {
		emit(y.Child(u), -1)
	}
	if root {
		// The spliced children are the result's certain children, which the
		// next integration pairs again: keep what was derived of them.
		pairing.Retain(func(k int) bool {
			if k < len(certA) {
				return compA[k] < 0
			}
			return compB[k-len(certA)] < 0
		})
		it.work.keys, it.work.inputs = pairing.Derived()
		it.rootFrom = from
	}
	return out, nil
}

// splitChildren separates an element's certainly-present child elements
// from its genuine choice points, and returns the positions of the latter
// among its children. own[i] is the position of the trivial choice point
// that holds certain[i] and nothing else, -1 when the element shares its
// choice point with siblings.
func splitChildren(elem *pxml.Node) (certain []*pxml.Node, own, uncertain []int) {
	certain, own = make([]*pxml.Node, 0, elem.NumChildren()), make([]int, 0, elem.NumChildren())
	for k, prob := range elem.Children() {
		if prob.NumChildren() != 1 {
			uncertain = append(uncertain, k)
			continue
		}
		poss := prob.Child(0)
		at := -1
		if poss.NumChildren() == 1 && poss.Prob() == 1 {
			at = k
		}
		for _, el := range poss.Children() {
			certain = append(certain, el)
			own = append(own, at)
		}
	}
	return certain, own, uncertain
}

// splice carries a certain child of parent into the result inside the choice
// point it came in, at position at among parent's children, so that what an
// earlier pass cached on that node (normal form, summary) is found again; a
// child without one of its own (at < 0) gets a new one.
func splice(parent *pxml.Node, at int, elem *pxml.Node) *pxml.Node {
	if at >= 0 {
		return parent.Child(at)
	}
	return pxml.Certain(elem)
}

// inComponent maps every certain child of either side to the index of its
// component, -1 for none.
func inComponent(comps []component, na, nb int) (compA, compB []int) {
	compA, compB = make([]int, na), make([]int, nb)
	for i := range compA {
		compA[i] = -1
	}
	for j := range compB {
		compB[j] = -1
	}
	for ci, c := range comps {
		for _, i := range c.aIdx {
			compA[i] = ci
		}
		for _, j := range c.bIdx {
			compB[j] = ci
		}
	}
	return compA, compB
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
func (it *integrator) tagBudgets(x, y *pxml.Node, certA, certB []*pxml.Node, uncA, uncB []int,
	comps []component, compA, compB []int) (map[int]map[string]int, error) {
	if it.cfg.Schema == nil {
		return nil, nil
	}
	// Bounded tags among all prospective children: the schema is asked once
	// per distinct tag, bounded or not.
	parentTag := x.Tag()
	bounded := map[string]int{}
	var asked []string
	noteTag := func(tag string) {
		if slices.Contains(asked, tag) {
			return
		}
		asked = append(asked, tag)
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
		if compA[i] < 0 {
			fixed[xa.Tag()]++
		}
	}
	for j, yb := range certB {
		if compB[j] < 0 {
			fixed[yb.Tag()]++
		}
	}
	uncs := make([]*pxml.Node, 0, len(uncA)+len(uncB))
	for _, u := range uncA {
		uncs = append(uncs, x.Child(u))
	}
	for _, u := range uncB {
		uncs = append(uncs, y.Child(u))
	}
	for _, unc := range uncs {
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
