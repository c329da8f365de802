// Package oracle implements "The Oracle" of IMPrECISE (paper §IV–V): the
// component that determines the probability that two XML elements refer to
// the same real-world object (rwo), driven by knowledge rules.
//
// Rules make statements about when, with certainty, two elements match or
// do not match; whenever no rule can make an absolute decision the Oracle
// returns an Unknown verdict with a match-probability estimate, and the
// integration engine keeps both possibilities. The effectiveness of the
// rules at making absolute decisions is what controls how much uncertainty
// — how many nodes — the integration result contains (paper Table I).
package oracle

import (
	"fmt"
	"sync/atomic"

	"repro/internal/pxml"
)

// Decision classifies a pair of elements.
type Decision uint8

const (
	// Unknown means no rule could decide; the pair may or may not match.
	Unknown Decision = iota
	// MustMatch means the elements certainly refer to the same rwo.
	MustMatch
	// CannotMatch means the elements certainly refer to different rwos.
	CannotMatch
)

// String returns the decision name.
func (d Decision) String() string {
	switch d {
	case Unknown:
		return "unknown"
	case MustMatch:
		return "must-match"
	case CannotMatch:
		return "cannot-match"
	default:
		return fmt.Sprintf("Decision(%d)", uint8(d))
	}
}

// Verdict is the Oracle's answer for one element pair.
type Verdict struct {
	Decision Decision
	// P is the probability that the pair refers to the same rwo. It is 1
	// for MustMatch, 0 for CannotMatch, and an estimate in (0,1) for
	// Unknown.
	P float64
	// Rule names the rule that decided, or describes the estimate for
	// Unknown verdicts.
	Rule string
}

// Rule inspects a pair of same-tag elements from different sources and
// either decides or abstains.
type Rule interface {
	// Name identifies the rule in statistics and error messages.
	Name() string
	// Apply returns a verdict; Decision == Unknown means the rule
	// abstains (its P is then ignored).
	Apply(a, b *pxml.Node) Verdict
	// BlockKey returns the element's blocking key under this rule, or ""
	// when the rule has none for it. The contract is soundness: whenever
	// the keys of two elements are both non-empty and differ, Apply
	// decides the pair CannotMatch. That lets a caller with two lists of
	// elements derive the keys once per element and skip the pairs they
	// rule out without calling Apply (see Oracle.Block). An element
	// whose key field is missing or uncertain has no one value to stand
	// for it — it denotes every value it could take — so its key is ""
	// and it is still compared with everyone.
	BlockKey(e *pxml.Node) string
}

// Estimator produces a match-probability estimate for an undecided pair.
type Estimator func(a, b *pxml.Node) float64

// Reconciler merges two conflicting text values of matched leaves into a
// single canonical value. Returning ok == false keeps both values as
// mutually exclusive possibilities (the default behaviour).
type Reconciler func(a, b string) (value string, ok bool)

// ConflictError reports two rules making opposite absolute decisions about
// the same pair.
type ConflictError struct {
	TagA, TagB string
	MustRule   string
	CannotRule string
}

func (e *ConflictError) Error() string {
	return fmt.Sprintf("oracle: conflicting decisions on <%s>/<%s> pair: %q says must-match, %q says cannot-match",
		e.TagA, e.TagB, e.MustRule, e.CannotRule)
}

// Oracle evaluates rules over element pairs. Decide and Reconcile are safe
// for concurrent use (the parallel integration engine consults the Oracle
// from many workers) provided the installed rules, estimators and
// reconcilers are pure functions of their inputs; the call counters are
// atomic.
type Oracle struct {
	rules       []Rule
	prior       float64
	estimators  map[string]Estimator
	reconcilers map[string]Reconciler
	strict      bool
	calls       atomic.Int64
	undecided   atomic.Int64
}

// Option configures an Oracle.
type Option func(*Oracle)

// WithPrior sets the default match probability for undecided pairs
// (default 0.5). It must lie strictly between 0 and 1.
func WithPrior(p float64) Option {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("oracle: prior %g must be in (0,1)", p))
	}
	return func(o *Oracle) { o.prior = p }
}

// WithEstimator installs a probability estimator for undecided pairs of
// elements with the given tag. Estimates are clamped into
// [ProbFloor, 1-ProbFloor] so an estimator cannot silently make absolute
// decisions.
func WithEstimator(tag string, e Estimator) Option {
	return func(o *Oracle) { o.estimators[tag] = e }
}

// Strict makes rule conflicts an error instead of resolving them in favor
// of CannotMatch.
func Strict() Option {
	return func(o *Oracle) { o.strict = true }
}

// WithReconciler installs a value reconciler for matched leaves with the
// given tag, e.g. canonicalizing "Woo, John" and "John Woo" to one form
// instead of keeping both as possibilities.
func WithReconciler(tag string, r Reconciler) Option {
	return func(o *Oracle) { o.reconcilers[tag] = r }
}

// ProbFloor bounds Unknown estimates away from the absolute decisions.
const ProbFloor = 0.01

// New builds an Oracle with the given rules, applied in order. The paper's
// generic rule "two deep-equal elements refer to the same rwo" is always
// present; the other generic rule ("no two siblings in one source refer to
// the same rwo") is structural and enforced by the integration engine.
func New(rules []Rule, opts ...Option) *Oracle {
	o := &Oracle{
		rules:       append([]Rule{DeepEqual()}, rules...),
		prior:       0.5,
		estimators:  make(map[string]Estimator),
		reconcilers: make(map[string]Reconciler),
	}
	for _, opt := range opts {
		opt(o)
	}
	return o
}

// Blocker holds the blocking keys of two lists of elements about to be
// paired. The nil Blocker blocks nothing.
type Blocker struct {
	// One entry per rule that has a key for some element of both lists:
	// as[r][i] is the key of the i-th element of the first list under it,
	// bs[r][j] that of the j-th element of the second.
	as, bs [][]string
}

// Block derives every rule's blocking key for every element of the two
// lists, once each. The pairs the result reports as blocked are exactly
// pairs Decide would answer CannotMatch: some rule's keys differ, that rule
// decides cannot-match (the BlockKey contract), and a cannot-match prevails
// over whatever the other rules say. Under Strict that last step does not
// hold — a must-match from another rule makes the pair a ConflictError, not
// a verdict — so every pair has to reach every rule and Block returns nil.
func (o *Oracle) Block(as, bs []*pxml.Node) *Blocker {
	if o.strict {
		return nil
	}
	var bl *Blocker
	for _, r := range o.rules {
		ka := blockKeys(r, as)
		if ka == nil {
			continue
		}
		kb := blockKeys(r, bs)
		if kb == nil {
			continue
		}
		if bl == nil {
			bl = &Blocker{}
		}
		bl.as, bl.bs = append(bl.as, ka), append(bl.bs, kb)
	}
	return bl
}

// blockKeys lists the rule's key of every element, or returns nil when it
// has none for any of them.
func blockKeys(r Rule, elems []*pxml.Node) []string {
	var keys []string
	for i, e := range elems {
		if k := r.BlockKey(e); k != "" {
			if keys == nil {
				keys = make([]string, len(elems))
			}
			keys[i] = k
		}
	}
	return keys
}

// Blocked reports whether the i-th element of the first list and the j-th
// of the second cannot match: some rule has a key for both and the keys
// differ.
func (bl *Blocker) Blocked(i, j int) bool {
	if bl == nil {
		return false
	}
	for r, ka := range bl.as {
		if a, b := ka[i], bl.bs[r][j]; a != "" && b != "" && a != b {
			return true
		}
	}
	return false
}

// Rules returns the names of the installed rules, in application order.
func (o *Oracle) Rules() []string {
	names := make([]string, len(o.rules))
	for i, r := range o.rules {
		names[i] = r.Name()
	}
	return names
}

// Decide runs every rule on the pair and combines their verdicts. All rules
// are consulted (not just the first decisive one) so that conflicts are
// detected. With multiple agreeing decisive rules the first one is
// reported.
func (o *Oracle) Decide(a, b *pxml.Node) (Verdict, error) {
	o.calls.Add(1)
	var must, cannot string
	for _, r := range o.rules {
		v := r.Apply(a, b)
		switch v.Decision {
		case MustMatch:
			if must == "" {
				must = nameOf(r, v)
			}
		case CannotMatch:
			if cannot == "" {
				cannot = nameOf(r, v)
			}
		}
	}
	switch {
	case must != "" && cannot != "":
		if o.strict {
			return Verdict{}, &ConflictError{TagA: a.Tag(), TagB: b.Tag(), MustRule: must, CannotRule: cannot}
		}
		// Default resolution: a cannot-match is the safer absolute
		// decision (it keeps both elements rather than fabricating a
		// merge).
		return Verdict{Decision: CannotMatch, P: 0, Rule: cannot + " (overrides " + must + ")"}, nil
	case must != "":
		return Verdict{Decision: MustMatch, P: 1, Rule: must}, nil
	case cannot != "":
		return Verdict{Decision: CannotMatch, P: 0, Rule: cannot}, nil
	}
	o.undecided.Add(1)
	p := o.prior
	rule := "prior"
	if est, ok := o.estimators[a.Tag()]; ok {
		p = clamp(est(a, b))
		rule = "estimator"
	}
	return Verdict{Decision: Unknown, P: p, Rule: rule}, nil
}

func nameOf(r Rule, v Verdict) string {
	if v.Rule != "" {
		return v.Rule
	}
	return r.Name()
}

func clamp(p float64) float64 {
	if p < ProbFloor {
		return ProbFloor
	}
	if p > 1-ProbFloor {
		return 1 - ProbFloor
	}
	return p
}

// Reconcile asks the Oracle to merge two conflicting text values of
// matched elements with the given tag. ok == false means no reconciler is
// registered (or it declined) and both values stay possible.
func (o *Oracle) Reconcile(tag, a, b string) (string, bool) {
	r, ok := o.reconcilers[tag]
	if !ok {
		return "", false
	}
	return r(a, b)
}

// Calls reports how many pairs the Oracle has decided; Undecided how many
// of those got an Unknown verdict — the paper's "occasions on which The
// Oracle could not make an absolute decision".
func (o *Oracle) Calls() int { return int(o.calls.Load()) }

// Undecided reports the number of Unknown verdicts issued.
func (o *Oracle) Undecided() int { return int(o.undecided.Load()) }

// ResetStats clears the call counters.
func (o *Oracle) ResetStats() { o.calls.Store(0); o.undecided.Store(0) }
