// Package explain traces probabilistic query answers back to the choice
// points they depend on — the "which worlds is this answer true in?"
// question that underlies the paper's feedback mechanism (feedback on
// answers is traced back to possible worlds). For a given answer value it
// reports, per choice point, the answer probability under each forced
// alternative and the posterior probability of each alternative given the
// answer, ranked by influence. Integrators use it to see which undecided
// matches an implausible answer hinges on.
package explain

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/pxml"
	"repro/internal/query"
)

// AltInfluence describes one alternative of a choice point relative to an
// answer.
type AltInfluence struct {
	// Index is the alternative's position in the choice point.
	Index int
	// Prior is the alternative's unconditioned probability.
	Prior float64
	// PAnswer is P(answer | this alternative chosen).
	PAnswer float64
	// Posterior is P(this alternative | answer), by Bayes.
	Posterior float64
	// Summary sketches the alternative's contents (first line).
	Summary string
}

// ChoiceInfluence describes one choice point's effect on the answer.
type ChoiceInfluence struct {
	// Path locates the choice point: element path from the root, each
	// element with its index among its same-tag siblings, with child-choice
	// indexes, e.g. /catalog[0]/choice[2]⟨alt 4⟩/movie[1]/choice[0].
	Path string
	// Alternatives lists the per-alternative numbers.
	Alternatives []AltInfluence
	// Influence is the spread max_i PAnswer − min_i PAnswer: 0 means the
	// answer is independent of this choice.
	Influence float64
}

// Report explains one answer.
type Report struct {
	Query string
	Value string
	// P is the answer's probability.
	P float64
	// Choices are the genuine choice points, most influential first.
	Choices []ChoiceInfluence
}

// minInfluence is the influence below which a choice point is left out of
// a report.
const minInfluence = 1e-9

// ErrNoAnswer is returned when the value is not a possible answer.
var ErrNoAnswer = errors.New("explain: value is not a possible answer of the query")

// Answer analyzes which choice points an answer depends on. The candidates
// are the choice points of query.Support: a choice point outside it
// yields the value in none of its alternatives' worlds, so it has no
// influence.
func Answer(t *pxml.Tree, q *query.Query, value string) (*Report, error) {
	baseline, err := evalValue(t, q, value)
	if err != nil {
		return nil, err
	}
	if baseline <= 0 {
		return nil, fmt.Errorf("%w: %q", ErrNoAnswer, value)
	}
	report := &Report{Query: q.String(), Value: value, P: baseline}
	err = query.Support(t, q, value, func(path []*pxml.Node) {
		if ci, ok := influence(t, q, value, baseline, path); ok && ci.Influence >= minInfluence {
			report.Choices = append(report.Choices, ci)
		}
	})
	if err != nil {
		return nil, err
	}
	slices.SortStableFunc(report.Choices, func(a, b ChoiceInfluence) int { return cmp.Compare(b.Influence, a.Influence) })
	return report, nil
}

// influence forces each alternative of the choice point path ends in and
// evaluates the answer's probability in the forced document. It reports
// false when an evaluation fails.
func influence(t *pxml.Tree, q *query.Query, value string, baseline float64, path []*pxml.Node) (ChoiceInfluence, bool) {
	choice := path[len(path)-1]
	ci := ChoiceInfluence{Path: pathString(path)}
	minP, maxP := 1.0, 0.0
	for i, poss := range choice.Children() {
		p, err := evalValue(forceAlternative(t, choice, i), q, value)
		if err != nil {
			return ci, false
		}
		ci.Alternatives = append(ci.Alternatives, AltInfluence{
			Index:     i,
			Prior:     poss.Prob(),
			PAnswer:   p,
			Posterior: poss.Prob() * p / baseline,
			Summary:   summarize(poss),
		})
		minP, maxP = min(minP, p), max(maxP, p)
	}
	ci.Influence = maxP - minP
	return ci, true
}

func evalValue(t *pxml.Tree, q *query.Query, value string) (float64, error) {
	answers, err := query.EvalExact(t, q, 0)
	if err != nil {
		return 0, err
	}
	for _, a := range answers {
		if a.Value == value {
			return a.P, nil
		}
	}
	return 0, nil
}

// pathString renders the location of the choice point path ends in: the
// element tags from the root, each with its index among its same-tag
// siblings (/movie[k]), /choice[i] for an element's i-th genuine choice
// point and ⟨alt i⟩ for the alternative taken at a genuine one. An element
// in an alternative of a genuine choice point is counted among that
// alternative's elements, one in a trivial choice point among the elements
// of its parent's trivial choice points.
func pathString(path []*pxml.Node) string {
	var b strings.Builder
	for i, n := range path {
		switch {
		case n.Kind() == pxml.KindElem:
			fmt.Fprintf(&b, "/%s[%d]", n.Tag(), siblingIndex(path, i))
		case i == 0: // the root choice point
		case n.Kind() == pxml.KindPoss:
			if alts := path[i-1].Children(); len(alts) > 1 {
				fmt.Fprintf(&b, "⟨alt %d⟩", slices.Index(alts, n))
			}
		case n.NumChildren() > 1:
			kids := path[i-1].Children()
			ci := 0
			for _, k := range kids[:slices.Index(kids, n)] {
				if k.NumChildren() > 1 {
					ci++
				}
			}
			fmt.Fprintf(&b, "/choice[%d]", ci)
		}
	}
	return b.String()
}

// siblingIndex returns the index of the element path[i] among its same-tag
// siblings: path[i-1] is its alternative, path[i-2] that alternative's
// choice point and path[i-3], if any, the parent element.
func siblingIndex(path []*pxml.Node, i int) int {
	elem, poss, prob := path[i], path[i-1], path[i-2]
	k := 0
	count := func(poss *pxml.Node) {
		for _, e := range poss.Children() {
			if e == elem {
				return
			}
			if e.Tag() == elem.Tag() {
				k++
			}
		}
	}
	if prob.NumChildren() > 1 || i < 3 {
		count(poss)
		return k
	}
	for _, p := range path[i-3].Children() {
		if p == prob {
			count(poss)
			return k
		}
		if p.NumChildren() == 1 {
			count(p.Child(0))
		}
	}
	return k
}

// forceAlternative returns a tree in which the given choice point is
// committed to alternative i (all occurrences, if the node is shared).
// substitute keeps the kind of every node, so the root stays a choice point.
func forceAlternative(t *pxml.Tree, choice *pxml.Node, i int) *pxml.Tree {
	alt := choice.Child(i)
	replacement := pxml.NewProb(pxml.NewPoss(1, alt.Children()...))
	return pxml.MustTree(substitute(t.Root(), choice, replacement, map[*pxml.Node]*pxml.Node{}))
}

func substitute(n, target, replacement *pxml.Node, memo map[*pxml.Node]*pxml.Node) *pxml.Node {
	if n == target {
		return replacement
	}
	if out, ok := memo[n]; ok {
		return out
	}
	kids := n.Children()
	var newKids []*pxml.Node
	for i, k := range kids {
		nk := substitute(k, target, replacement, memo)
		if nk != k && newKids == nil {
			newKids = make([]*pxml.Node, len(kids))
			copy(newKids, kids[:i])
		}
		if newKids != nil {
			newKids[i] = nk
		}
	}
	out := n
	if newKids != nil {
		switch n.Kind() {
		case pxml.KindProb:
			out = pxml.NewProb(newKids...)
		case pxml.KindPoss:
			out = pxml.NewPoss(n.Prob(), newKids...)
		default:
			out = pxml.NewElem(n.Tag(), n.Text(), newKids...)
		}
	}
	memo[n] = out
	return out
}

// summarize renders a possibility's contents as a one-line sketch.
func summarize(poss *pxml.Node) string {
	if len(poss.Children()) == 0 {
		return "(absent)"
	}
	parts := make([]string, 0, len(poss.Children()))
	for _, el := range poss.Children() {
		v := query.StringValue(el)
		if v == "" {
			parts = append(parts, "<"+el.Tag()+">")
		} else if len(v) > 32 {
			parts = append(parts, fmt.Sprintf("<%s>%s…", el.Tag(), v[:29]))
		} else {
			parts = append(parts, fmt.Sprintf("<%s>%s", el.Tag(), v))
		}
	}
	return strings.Join(parts, " ")
}

// Format renders the report as aligned text.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "P(%s = %q) = %.4f\n", r.Query, r.Value, r.P)
	if len(r.Choices) == 0 {
		b.WriteString("the answer does not depend on any choice point\n")
		return b.String()
	}
	for _, c := range r.Choices {
		fmt.Fprintf(&b, "choice %s (influence %.4f)\n", c.Path, c.Influence)
		for _, a := range c.Alternatives {
			fmt.Fprintf(&b, "  alt %d  prior %.3f  P(answer|alt) %.3f  P(alt|answer) %.3f  %s\n",
				a.Index, a.Prior, a.PAnswer, a.Posterior, a.Summary)
		}
	}
	return b.String()
}
