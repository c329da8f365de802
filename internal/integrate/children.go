package integrate

import (
	"cmp"
	"fmt"
	"math"
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

	comps := it.components(edges, len(certA), len(certB))
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
		tags, allowed := budget.of(ci)
		choice, err := it.buildChoice(c, certA, certB, tags, allowed)
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
func (it *integrator) components(edges []edge, nA, nB int) []component {
	if len(edges) == 0 {
		return nil
	}
	var out []component
	if it.cfg.DisableComponentFactorization {
		out = []component{{edges: edges}}
	} else {
		// Union-find over node ids (A nodes are i, B nodes are nA+j), then
		// at[root] = 1 + the position of the root's component.
		parent, at := make([]int, nA+nB), make([]int, nA+nB)
		for v := range parent {
			parent[v] = v
		}
		find := func(v int) int {
			for parent[v] != v {
				parent[v] = parent[parent[v]]
				v = parent[v]
			}
			return v
		}
		for _, e := range edges {
			parent[find(e.i)] = find(nA + e.j)
		}
		for _, e := range edges {
			r := find(e.i)
			if at[r] == 0 {
				out = append(out, component{})
				at[r] = len(out)
			}
			c := &out[at[r]-1]
			c.edges = append(c.edges, e)
		}
	}
	for k := range out {
		c := &out[k]
		for _, e := range c.edges {
			c.aIdx = append(c.aIdx, e.i)
			c.bIdx = append(c.bIdx, e.j)
		}
		slices.Sort(c.aIdx)
		slices.Sort(c.bIdx)
		c.aIdx, c.bIdx = slices.Compact(c.aIdx), slices.Compact(c.bIdx)
		it.noteComponent(*c)
	}
	return out
}

func (it *integrator) noteComponent(c component) {
	it.stats.Components++
	it.stats.LargestComponent = max(it.stats.LargestComponent, len(c.edges))
}

// unconstrained marks a budget entry that constrains nothing.
const unconstrained = math.MaxInt

// budgets is what tagBudgets computes: the tags whose maximum occurrence
// under the parent is bounded, in child order, and per component and tag
// how many items of that tag its matchings may keep.
type budgets struct {
	tags    []string
	allowed []int // component ci's entries are allowed[ci*len(tags):][:len(tags)]
}

// of returns the bounded tags and component ci's budget, one entry per
// tag (nil: none).
func (b *budgets) of(ci int) ([]string, []int) {
	if b == nil {
		return nil, nil
	}
	k := len(b.tags)
	return b.tags, b.allowed[ci*k : (ci+1)*k]
}

// tagBudgets computes, for every tag whose maximum occurrence under the
// parent is bounded, how many component items of that tag are still
// admissible: Max(tag) − certain singles − best-case contribution of the
// other members. A component is constrained only on the tags of its A
// members; nil means no budget at all. It returns ErrIncompatible, naming
// the first such tag in child order, when even the best case exceeds a
// bound, which happens e.g. when two unmatchable phones meet a one-phone
// schema.
func (it *integrator) tagBudgets(x, y *pxml.Node, certA, certB []*pxml.Node, uncA, uncB []int,
	comps []component, compA, compB []int) (*budgets, error) {
	if it.cfg.Schema == nil {
		return nil, nil
	}
	// Bounded tags among all prospective children: the schema is asked once
	// per distinct tag, bounded or not.
	parentTag := x.Tag()
	var asked, tags []string
	var bound []int
	noteTag := func(tag string) {
		if slices.Contains(asked, tag) {
			return
		}
		asked = append(asked, tag)
		if max := it.cfg.Schema.MaxOccurs(parentTag, tag); max != dtd.Unbounded {
			tags, bound = append(tags, tag), append(bound, max)
		}
	}
	for _, xa := range certA {
		noteTag(xa.Tag())
	}
	for _, yb := range certB {
		noteTag(yb.Tag())
	}
	if len(tags) == 0 {
		return nil, nil
	}
	k := len(tags)
	uncs := make([]*pxml.Node, 0, len(uncA)+len(uncB))
	for _, u := range uncA {
		uncs = append(uncs, x.Child(u))
	}
	for _, u := range uncB {
		uncs = append(uncs, y.Child(u))
	}
	// Fixed contributions per tag: certain singles plus the best-case
	// (minimum) counts of preserved uncertain choice points.
	fixed := make([]int, k)
	for t, tag := range tags {
		for i, xa := range certA {
			if compA[i] < 0 && xa.Tag() == tag {
				fixed[t]++
			}
		}
		for j, yb := range certB {
			if compB[j] < 0 && yb.Tag() == tag {
				fixed[t]++
			}
		}
		for _, unc := range uncs {
			best := unconstrained
			for _, poss := range unc.Children() {
				best = min(best, countTag(poss.Children(), tag))
			}
			fixed[t] += best
		}
	}
	// Minimum items each component can produce per tag (members less a
	// maximum matching), and their sum over all components.
	minItems, sum := make([]int, len(comps)*k), make([]int, k)
	for ci, c := range comps {
		for t, tag := range tags {
			minItems[ci*k+t] = members(c, tag, certA, certB) - maxMatchingSize(c, tag, certA)
			sum[t] += minItems[ci*k+t]
		}
	}
	// Feasibility: even the best case must respect every bound.
	for t, tag := range tags {
		if total := fixed[t] + sum[t]; total > bound[t] {
			return nil, fmt.Errorf("%w: element <%s> would keep %d <%s> children in every world, schema allows %d",
				ErrIncompatible, parentTag, total, tag, bound[t])
		}
	}
	b := &budgets{tags: tags, allowed: make([]int, len(comps)*k)}
	for ci, c := range comps {
		for t, tag := range tags {
			b.allowed[ci*k+t] = unconstrained
			if slices.ContainsFunc(c.aIdx, func(i int) bool { return certA[i].Tag() == tag }) {
				b.allowed[ci*k+t] = bound[t] - fixed[t] - (sum[t] - minItems[ci*k+t])
			}
		}
	}
	return b, nil
}

// countTag counts the elements of the given tag.
func countTag(elems []*pxml.Node, tag string) int {
	n := 0
	for _, el := range elems {
		if el.Tag() == tag {
			n++
		}
	}
	return n
}

// members counts the component's members of the given tag, on both sides.
// Less the maximum matching size among edges of that tag, it is the
// minimum number of items of that tag the component can produce.
func members(c component, tag string, certA, certB []*pxml.Node) int {
	n := 0
	for _, i := range c.aIdx {
		if certA[i].Tag() == tag {
			n++
		}
	}
	for _, j := range c.bIdx {
		if certB[j].Tag() == tag {
			n++
		}
	}
	return n
}

// maxMatchingSize computes the maximum bipartite matching among the
// component's edges whose endpoints have the given tag, via augmenting
// paths (components are small). B members are addressed by their
// position in c.bIdx.
func maxMatchingSize(c component, tag string, certA []*pxml.Node) int {
	matchB := make([]int, len(c.bIdx)) // B position -> A index + 1, 0 when free
	seen := make([]bool, len(c.bIdx))
	var try func(i int) bool
	try = func(i int) bool {
		for _, e := range c.edges {
			if e.i != i {
				continue
			}
			b, _ := slices.BinarySearch(c.bIdx, e.j)
			if seen[b] {
				continue
			}
			seen[b] = true
			if matchB[b] == 0 || try(matchB[b]-1) {
				matchB[b] = i + 1
				return true
			}
		}
		return false
	}
	size := 0
	for _, i := range c.aIdx {
		if certA[i].Tag() != tag {
			continue
		}
		clear(seen)
		if try(i) {
			size++
		}
	}
	return size
}
