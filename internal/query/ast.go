// Package query implements the XPath/XQuery subset IMPrECISE needs for
// probabilistic querying (paper §VI), replacing MonetDB/XQuery as the
// query-processing substrate.
//
// The semantics of a query over a probabilistic document is the set of
// answers obtained by evaluating it in each possible world separately;
// answers equal across worlds are amalgamated and ranked by probability.
// Every query runs one path: the planner reads the document's summary and
// names a method, and the engine runs exactly that method.
//
//   - Exact: compositional probability propagation over the layered tree,
//     exact for the tree-factorized distribution, with local world
//     enumeration inside "anchor" subtrees to handle predicate/value
//     correlations. Auto picks it when the summary bounds every anchor
//     subtree within LocalWorldLimit.
//   - Sample: seeded Monte-Carlo estimation, auto's choice otherwise.
//   - Enumerate: full possible-world enumeration (ground truth, guarded),
//     run only on request and as the reference the tests compare against.
package query

import (
	"fmt"
	"strings"
)

// Query is a compiled path query.
type Query struct {
	Steps []Step
	src   string
}

// String returns the original query text.
func (q *Query) String() string { return q.src }

// Step is one location step.
type Step struct {
	// Desc applies the descendant-or-self axis before matching (the step
	// was preceded by //).
	Desc bool
	// Name is the element tag to match; "*" matches any element.
	Name string
	// IsText marks a text() step, which selects the context element's own
	// text value rather than child elements. Only valid as the last step.
	IsText bool
	// Preds are the step's predicates, all of which must hold.
	Preds []Pred
}

func (s Step) label() string {
	n := s.Name
	if s.IsText {
		n = "text()"
	}
	var b strings.Builder
	if s.Desc {
		b.WriteString("//")
	} else {
		b.WriteString("/")
	}
	b.WriteString(n)
	for _, p := range s.Preds {
		fmt.Fprintf(&b, "[%s]", p)
	}
	return b.String()
}

// RelPath is a path relative to a context element, used inside predicates.
type RelPath struct {
	// Self is true for the bare "." path (the context element itself).
	Self bool
	// Steps navigate from the context element.
	Steps []Step
}

func (p RelPath) String() string {
	var b strings.Builder
	if p.Self {
		b.WriteString(".")
	}
	for _, s := range p.Steps {
		b.WriteString(s.label())
	}
	return b.String()
}

// Pred is a predicate expression.
type Pred interface {
	fmt.Stringer
	isPred()
}

// PredExists holds when some node reached by Path satisfies Cond. It is
// the normal form of `[path]`, `[path = "lit"]`, `[contains(path, "lit")]`
// and `[some $v in path satisfies …]`, all of which have existential
// semantics over the path's node set.
type PredExists struct {
	Path RelPath
	Cond ValueCond
}

// PredAnd holds when both operands hold.
type PredAnd struct{ A, B Pred }

// PredOr holds when either operand holds.
type PredOr struct{ A, B Pred }

// PredNot holds when the operand does not.
type PredNot struct{ P Pred }

func (PredExists) isPred() {}
func (PredAnd) isPred()    {}
func (PredOr) isPred()     {}
func (PredNot) isPred()    {}

func (p PredExists) String() string {
	switch c := p.Cond.(type) {
	case CondAny:
		return p.Path.String()
	case CondEq:
		return fmt.Sprintf("%s = %q", p.Path, c.Lit)
	case CondContains:
		return fmt.Sprintf("contains(%s, %q)", p.Path, c.Lit)
	default:
		return fmt.Sprintf("%s ~ %s", p.Path, p.Cond)
	}
}
func (p PredAnd) String() string { return fmt.Sprintf("(%s and %s)", p.A, p.B) }
func (p PredOr) String() string  { return fmt.Sprintf("(%s or %s)", p.A, p.B) }
func (p PredNot) String() string { return fmt.Sprintf("not(%s)", p.P) }

// ValueCond is a condition on a node's string value.
type ValueCond interface {
	Match(v string) bool
	String() string
}

// CondAny accepts any node (pure existence test).
type CondAny struct{}

// CondEq tests string equality.
type CondEq struct{ Lit string }

// CondContains tests substring containment.
type CondContains struct{ Lit string }

func (CondAny) Match(string) bool          { return true }
func (CondAny) String() string             { return "*" }
func (c CondEq) Match(v string) bool       { return v == c.Lit }
func (c CondEq) String() string            { return "= " + c.Lit }
func (c CondContains) Match(v string) bool { return strings.Contains(v, c.Lit) }
func (c CondContains) String() string      { return "contains " + c.Lit }
