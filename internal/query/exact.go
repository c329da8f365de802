package query

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/pxml"
)

// ErrNotExact is returned when the exact evaluator cannot handle the
// query/document combination within its limits; callers should fall back
// to Enumerate or Sample.
var ErrNotExact = errors.New("query: exact evaluation not applicable")

// DefaultLocalWorldLimit bounds the possible worlds enumerated inside one
// anchor subtree by the exact evaluator.
const DefaultLocalWorldLimit = 100000

// EvalExact computes exact answer probabilities by compositional
// propagation over the layered tree.
//
// The algorithm picks an "anchor" step: the highest step carrying
// predicates (or the result step if none). Above the anchor, probabilities
// compose freely: alternatives of a choice point are mutually exclusive
// (probabilities add) and sibling choice points are independent (failure
// probabilities multiply). At an anchor match the evaluator switches to
// exhaustive local enumeration of that element's subtree, which captures
// every correlation between predicate events and answer values — at a cost
// bounded by localLimit possible worlds per anchor subtree that can match
// (ErrNotExact beyond that). It is the planner's exact executor, unmetered.
func EvalExact(t *pxml.Tree, q *Query, localLimit int) ([]Answer, error) {
	answers, _, err := evalExactPlanned(t, q, localLimit, nil)
	return answers, err
}

// anchorIndex returns the index of the highest predicated step, or the
// last element step when no step has predicates.
func anchorIndex(q *Query) int {
	for i, s := range q.Steps {
		if len(s.Preds) > 0 {
			return i
		}
	}
	last := len(q.Steps) - 1
	if q.Steps[last].IsText && last > 0 {
		return last - 1
	}
	return last
}

type localKey struct {
	e *pxml.Node
	s stateSet
}

type exactEval struct {
	q          *Query
	anchorIdx  int
	localLimit int

	// dists memoizes dist per (node, state set) the summaries did not
	// prune. It is made per evaluation by run.
	dists map[localKey]map[string]float64
	// need[i] is what a subtree must contain for the step chain i..last
	// to complete inside it (required tags and a Bloom mask of required
	// equality literals); subtrees that cannot satisfy any pending chain
	// are pruned without a visit. Nil need is the ungated mode, which
	// walks every subtree and enumerates every anchor reached.
	need []stepNeed
	// visited/prunedSubtrees count subtree visits for plan stats, a pruned
	// subtree once per time it is reached; anchorsEnumerated/anchorsSkipped
	// the anchor hits, by whether anchorCanMatch let them through to local
	// enumeration.
	visited, prunedSubtrees           int
	anchorsEnumerated, anchorsSkipped int64

	// budget meters node visits and enumerated worlds and carries
	// cancellation; nil meters nothing.
	budget *budget

	// walk lays out the local worlds of every anchor the evaluation
	// enumerates, one arena reused from anchor to anchor.
	walk walker
}

// advance computes the transition of the global NFA at an element: the
// next state set for its children and whether the element hits the anchor
// step (which switches evaluation to local enumeration).
func (e *exactEval) advance(elem *pxml.Node, states stateSet) (next stateSet, anchorHit bool) {
	for i := 0; i <= e.anchorIdx; i++ {
		if !states.has(i) {
			continue
		}
		step := e.q.Steps[i]
		if step.Desc {
			next = next.add(i)
		}
		// Above the anchor, steps carry no predicates by construction, so
		// a name match suffices.
		if !stepMatches(step, elem) {
			continue
		}
		if i == e.anchorIdx {
			anchorHit = true
			continue
		}
		next = next.add(i + 1)
	}
	return next, anchorHit
}

// localEval walks the possible worlds of one anchor element's subtree and
// returns, per answer value the remaining query (from the given state set)
// produces in some world, the probability that it produces no answer with
// that value — conditioned on the element existing. The value's
// probability is summed over the worlds in their order before it is taken
// from 1.
func (e *exactEval) localEval(elem *pxml.Node, states stateSet) (map[string]float64, error) {
	if err := e.checkLocalLimit(elem); err != nil {
		return nil, err
	}
	var out map[string]float64
	w := &e.walk
	w.reserve(elem)
	var stepErr error
	w.eachWorld(elem, func(p float64) bool {
		if stepErr = e.budget.step(); stepErr != nil {
			return false
		}
		w.eval(e.q, states)
		for _, v := range w.vals {
			if out == nil {
				out = make(map[string]float64)
			}
			out[v] += p
		}
		return true
	})
	if stepErr != nil {
		return nil, stepErr
	}
	for v, p := range out {
		out[v] = 1 - p
	}
	return out, nil
}

// checkLocalLimit refuses an anchor whose subtree has more local worlds
// than the limit, reading the count from its summary.
func (e *exactEval) checkLocalLimit(elem *pxml.Node) error {
	if wc := elem.Summary().Worlds; !wc.IsInt64() || wc.Int64() > int64(e.localLimit) {
		return fmt.Errorf("%w: anchor subtree <%s> has %s local worlds (limit %d)",
			ErrNotExact, elem.Tag(), wc.String(), e.localLimit)
	}
	return nil
}

// stepNeed is the static requirement the chain from one step to the last
// imposes on any subtree completing it.
type stepNeed struct {
	// tags are the distinct concrete element tags of steps i..last: any
	// complete match starting at step i assigns every later step to an
	// element inside the same subtree, so a subtree lacking one of the tags
	// cannot contribute an answer through state i.
	tags []string
	// litMask is the combined Bloom mask of the space-free literals among
	// the positively required [path = "lit"] predicates of steps i..last,
	// whatever the path ends in. A string value without a space is a
	// single element's own text (joined texts are space-separated), so a
	// subtree whose summary TextBloom misses any of these bits cannot
	// satisfy the predicates and contributes exactly nothing.
	litMask pxml.Bloom
	// lits are those of the required predicates whose path ends in a named
	// tag, spaces in the literal or not; see tagLit.
	lits []tagLit
	// textMask is what prepare derives from the two for one document: litMask
	// plus the masks of the leaf literals. A subtree whose TextBloom does
	// not cover it fails canMatch's fingerprint tests for this chain.
	textMask pxml.Bloom
}

// tagLit is one positively required [path = "lit"] whose path ends in the
// named tag: the predicate holds only in worlds where some <tag> inside the
// subtree has the string value lit. mask is the literal's Bloom mask; leaf
// is set by prepare when no <tag> in the document has children.
type tagLit struct {
	tag, lit string
	mask     pxml.Bloom
	leaf     bool
}

// admits is the summary half of the requirement: a subtree needs a <tag>
// at all, and where every <tag> in it is a leaf (TagStat.Inner == 0) the
// string value of each is its own text in every world, so the subtree's
// text fingerprint must cover the literal. Inner counts sum over subtrees,
// so for a leaf literal the fingerprint alone decides a miss.
func (tl tagLit) admits(sum *pxml.Summary) bool {
	if tl.leaf && !sum.TextBloom.Covers(tl.mask) {
		return false
	}
	st, ok := sum.Tags.Stat(tl.tag)
	return ok && (st.Inner > 0 || sum.TextBloom.Covers(tl.mask))
}

// occursIn is the exact half: it reports whether the uncertain subtree of n
// holds a <tag> that can have the string value lit — one with children
// (its value depends on the world) or a leaf whose text is lit. Summaries
// keep the scan off the branches that cannot.
func (tl tagLit) occursIn(n *pxml.Node) bool {
	if !tl.admits(n.Summary()) {
		return false
	}
	if n.Kind() == pxml.KindElem && n.Tag() == tl.tag && (!n.IsLeaf() || n.Text() == tl.lit) {
		return true
	}
	for _, k := range n.Children() {
		if tl.occursIn(k) {
			return true
		}
	}
	return false
}

// stepNeeds computes the per-step chain requirements, shared backwards:
// need[i] accumulates the tags, literal mask and tag literals of steps
// i..last. A non-empty answer is required of the last step as one more
// literal (see answerLiteral): the conditioner prunes every subtree that
// cannot yield the value it rejects.
func stepNeeds(q *Query, answer string) []stepNeed {
	need := make([]stepNeed, len(q.Steps))
	var tags []string
	var mask pxml.Bloom
	var lits []tagLit
	// need[i+1..] keep their shorter prefixes of the arrays appended to.
	last := len(q.Steps) - 1
	for i := last; i >= 0; i-- {
		s := q.Steps[i]
		if !s.IsText && s.Name != "*" && !slices.Contains(tags, s.Name) {
			tags = append(tags, s.Name)
		}
		required := requiredEqLiterals(s)
		if i == last && answer != "" {
			required = append(required, answerLiteral(q, answer))
		}
		for _, tl := range required {
			if !strings.ContainsRune(tl.lit, ' ') {
				mask = mask.Or(tl.mask)
			}
			if tl.tag != "" {
				lits = append(lits, tl)
			}
		}
		need[i] = stepNeed{tags: tags, litMask: mask, lits: lits}
	}
	return need
}

// requiredEqLiterals collects the non-empty equality literals a step's
// predicates positively require — conjuncts of the form [path = "lit"] —
// that a subtree can be tested for: tag is the path's last step when that
// is a named tag, and empty for a path ending in *, . or text(), where only
// a space-free literal is kept. Literals under not(…) or or(…) are not
// required and contribute nothing.
func requiredEqLiterals(s Step) []tagLit {
	var out []tagLit
	var rec func(p Pred)
	rec = func(p Pred) {
		switch p := p.(type) {
		case PredExists:
			eq, ok := p.Cond.(CondEq)
			if !ok || eq.Lit == "" {
				return
			}
			tl := tagLit{lit: eq.Lit, mask: pxml.TextBloomBits(eq.Lit)}
			if n := len(p.Path.Steps); n > 0 {
				if last := p.Path.Steps[n-1]; !last.IsText && last.Name != "*" {
					tl.tag = last.Name
				}
			}
			if tl.tag != "" || !strings.ContainsRune(eq.Lit, ' ') {
				out = append(out, tl)
			}
		case PredAnd:
			rec(p.A)
			rec(p.B)
		}
	}
	for _, p := range s.Preds {
		rec(p)
	}
	return out
}

// answerLiteral is an answer value as a required literal. An answer is
// the string value of an element the last element step matches, or that
// element's own text under a text() step, so some such element inside a
// subtree yielding the value has it: what a required [tag = "lit"] asks of
// a <tag>, with the tag unnamed under a wildcard step.
func answerLiteral(q *Query, value string) tagLit {
	s := q.Steps[len(q.Steps)-1]
	if s.IsText {
		s = q.Steps[len(q.Steps)-2]
	}
	tl := tagLit{lit: value, mask: pxml.TextBloomBits(value)}
	if s.Name != "*" {
		tl.tag = s.Name
	}
	return tl
}

// canMatch reports whether the subtree of n can possibly complete any
// pending step chain, judged by its cached summary (text fingerprint, tag
// literals and tag set). Always true in the ungated mode.
func (e *exactEval) canMatch(n *pxml.Node, states stateSet) bool {
	if e.need == nil {
		return true
	}
	sum := n.Summary()
chains:
	for i := 0; i <= e.anchorIdx; i++ {
		if !states.has(i) {
			continue
		}
		nd := e.need[i]
		if !sum.TextBloom.Covers(nd.textMask) {
			continue
		}
		for _, tl := range nd.lits {
			if !tl.admits(sum) {
				continue chains
			}
		}
		for _, t := range nd.tags {
			if !sum.Tags.Has(t) {
				continue chains
			}
		}
		return true
	}
	return false
}

// anchorCanMatch is the exact check in front of a local enumeration: the
// anchor is enumerated only if its subtree holds every tag literal its
// predicates require (and, for the conditioner, the rejected value). Steps
// above the anchor carry no predicates, so every pending chain requires the
// anchor step's literals, inside this subtree. An anchor that fails the
// check produces no value in any world, or not the rejected one: skipping
// it contributes what enumerating it would, an empty value set and failure
// probability 1. Always true in the ungated mode.
func (e *exactEval) anchorCanMatch(n *pxml.Node) bool {
	if e.need == nil {
		return true
	}
	for _, tl := range e.need[e.anchorIdx].lits {
		if !tl.occursIn(n) {
			return false
		}
	}
	return true
}

// dist returns, for each answer value the subtree of n can produce given
// the pending states, the probability that it produces no answer with that
// value. A value it cannot produce is absent: its failure probability is
// exactly 1. A subtree the summaries prune is counted and answers nil
// without entering the memo; the others are memoized per (node, state set).
// A returned map may be shared with the memo and with other nodes, so it is
// never written once returned.
func (e *exactEval) dist(n *pxml.Node, states stateSet) (map[string]float64, error) {
	if states == 0 {
		return nil, nil
	}
	if !e.canMatch(n, states) {
		e.visited++
		e.prunedSubtrees++
		return nil, e.budget.step()
	}
	key := localKey{e: n, s: states}
	if d, ok := e.dists[key]; ok {
		return d, nil
	}
	e.visited++
	if err := e.budget.step(); err != nil {
		return nil, err
	}
	var d map[string]float64
	var err error
	switch n.Kind() {
	case pxml.KindProb:
		d, err = e.probDist(n, states)
	case pxml.KindPoss:
		d, err = e.productDist(n, states)
	default: // element
		next, hit := e.advance(n, states)
		switch {
		case hit && !e.anchorCanMatch(n):
			e.anchorsSkipped++
		case hit:
			e.anchorsEnumerated++
			d, err = e.localEval(n, states)
		default:
			d, err = e.productDist(n, next)
		}
	}
	if err != nil {
		return nil, err
	}
	e.dists[key] = d
	return d, nil
}

// probDist composes the alternatives of a choice point, which are mutually
// exclusive: a value's failure probability is the sum of poss.Prob()·f over
// the alternatives in order, f = 1 for one that cannot produce the value.
// absent is that running sum for a value no alternative has produced yet. A
// lone alternative of probability 1 shares its map, since 0 + 1·f = f.
func (e *exactEval) probDist(n *pxml.Node, states stateSet) (map[string]float64, error) {
	kids := n.Children()
	if len(kids) == 1 && kids[0].Prob() == 1 {
		return e.dist(kids[0], states)
	}
	var d map[string]float64
	absent := 0.0
	for _, poss := range kids {
		pd, err := e.dist(poss, states)
		if err != nil {
			return nil, err
		}
		p := poss.Prob()
		for v, f := range d {
			if _, ok := pd[v]; !ok {
				d[v] = f + p
			}
		}
		if d == nil && len(pd) > 0 {
			d = make(map[string]float64, len(pd))
		}
		for v, f := range pd {
			g, ok := d[v]
			if !ok {
				g = absent
			}
			d[v] = g + p*f
		}
		absent += p
	}
	return d, nil
}

// productDist composes the independent children of n — the contents of a
// possibility or the children of an element that is not an anchor: a
// value's failure probability is the product of the children's in child
// order, a child that cannot produce the value contributing the factor 1.
// The map of a single contributing child is shared, since 1·f = f.
//
// A child whose entry in n's column of fingerprints (Summary.KidBlooms)
// fails every pending chain's textMask fails canMatch, so it is counted as
// the pruned visit dist would make of it without reading its summary.
func (e *exactEval) productDist(n *pxml.Node, states stateSet) (map[string]float64, error) {
	if states == 0 {
		return nil, nil
	}
	var col []pxml.Bloom
	if e.need != nil {
		col = n.Summary().KidBlooms
	}
	var d map[string]float64
	shared := true
	for i, k := range n.Children() {
		if col != nil && !e.textAdmits(col[i], states) {
			e.visited++
			e.prunedSubtrees++
			if err := e.budget.step(); err != nil {
				return nil, err
			}
			continue
		}
		kd, err := e.dist(k, states)
		if err != nil {
			return nil, err
		}
		switch {
		case len(kd) == 0:
			continue
		case d == nil:
			d = kd
			continue
		case shared:
			d, shared = maps.Clone(d), false
		}
		for v, f := range kd {
			if g, ok := d[v]; ok {
				d[v] = g * f
			} else {
				d[v] = f
			}
		}
	}
	return d, nil
}

// textAdmits reports whether a subtree whose fingerprint is b passes the
// fingerprint test of some pending chain.
func (e *exactEval) textAdmits(b pxml.Bloom, states stateSet) bool {
	for i := 0; i <= e.anchorIdx; i++ {
		if states.has(i) && b.Covers(e.need[i].textMask) {
			return true
		}
	}
	return false
}

// evalExactPlanned is the exact executor: one memoized pass that computes,
// per subtree the summaries cannot prune, the failure probability of every
// value it can produce. It returns the evaluator alongside the answers so
// the planner can report pruning statistics.
func evalExactPlanned(t *pxml.Tree, q *Query, localLimit int, b *budget) ([]Answer, *exactEval, error) {
	e, err := newExactEval(q, localLimit)
	if err != nil {
		return nil, nil, err
	}
	e.budget = b
	answers, err := e.run(t)
	return answers, e, err
}

// newExactEval sets up the compositional evaluator of q that the exact
// executor, ExpectedCount and ConditionAbsent share. A localLimit <= 0
// means DefaultLocalWorldLimit; a query it cannot compose is ErrNotExact.
func newExactEval(q *Query, localLimit int) (*exactEval, error) {
	if localLimit <= 0 {
		localLimit = DefaultLocalWorldLimit
	}
	if len(q.Steps) == 0 {
		return nil, fmt.Errorf("%w: empty query", ErrNotExact)
	}
	if q.Steps[0].IsText {
		return nil, fmt.Errorf("%w: text() cannot be the first step", ErrNotExact)
	}
	return &exactEval{
		q:          q,
		anchorIdx:  anchorIndex(q),
		localLimit: localLimit,
		need:       stepNeeds(q, ""),
	}, nil
}

// prepare derives what the needs require of t's subtrees: which tag
// literals are leaf literals in t, and so each chain's textMask. The
// executor and the conditioner call it before they walk t.
func (e *exactEval) prepare(t *pxml.Tree) {
	tags := t.Summary().Tags
	for i := range e.need {
		nd := &e.need[i]
		nd.textMask = nd.litMask
		for j := range nd.lits {
			tl := &nd.lits[j]
			st, _ := tags.Stat(tl.tag)
			tl.leaf = st.Inner == 0
			if tl.leaf {
				nd.textMask = nd.textMask.Or(tl.mask)
			}
		}
	}
}

// run evaluates the query over t; see evalExactPlanned. The memo is made
// here, per evaluation: it holds only the subtrees that were not pruned.
func (e *exactEval) run(t *pxml.Tree) ([]Answer, error) {
	e.prepare(t)
	e.dists = make(map[localKey]map[string]float64)
	d, err := e.dist(t.Root(), stateSet(1))
	if err != nil {
		return nil, err
	}
	answers := make([]Answer, 0, len(d))
	for v, f := range d {
		if p := 1 - f; p > 1e-12 {
			answers = append(answers, Answer{Value: v, P: p})
		}
	}
	sortAnswers(answers)
	return answers, nil
}

func sortAnswers(answers []Answer) {
	sort.Slice(answers, func(i, j int) bool {
		if answers[i].P != answers[j].P {
			return answers[i].P > answers[j].P
		}
		return answers[i].Value < answers[j].Value
	})
}
