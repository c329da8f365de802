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
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/pxml"
	"repro/internal/strsim"
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
	// rule out without calling Apply (see Oracle.Pair). An element
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

// Oracle evaluates rules over element pairs. Decide, Pair and Reconcile are
// safe for concurrent use (different databases integrate concurrently)
// provided the installed rules, estimators and reconcilers are pure
// functions of their inputs; the call counters are atomic. A Pairing is
// not: it belongs to one integrateChildren call and one goroutine.
type Oracle struct {
	rules       []Rule
	builtins    []*builtin // builtins[r] is rules[r] when built in this package, else nil
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
	o.builtins = make([]*builtin, len(o.rules))
	for r, rule := range o.rules {
		o.builtins[r], _ = rule.(*builtin)
	}
	return o
}

// Pairing decides the pairs of two lists of elements — the certain
// children of two elements being integrated — by their indices. It derives
// the blocking keys of every element up front and the built-in rules'
// inputs (see builtin) of an element when its first pair is decided; a
// KeyField rule's input is the key itself. Nothing in it outlives the
// call, so nothing needs invalidating; Release pools its storage.
type Pairing struct {
	o *Oracle
	// elems lists the first list's na elements and then the second's. For
	// the k-th, keys[r][k] is its key under o.rules[r] (nil where none has
	// one), in[k*len(o.rules)+r] its input for that rule, and ready[k]
	// reports the inputs derived.
	elems  []*pxml.Node
	na     int
	keys   [][]string
	in     []input
	ready  []bool
	titles strsim.TitleBuf
}

var pairings = sync.Pool{New: func() any { return new(Pairing) }}

// Pair prepares to decide the pairs of two lists of elements and derives
// every rule's blocking key for every element. A pair it reports blocked is
// one Decide answers CannotMatch: a rule's keys differ, so it decides
// cannot-match (the BlockKey contract), which prevails over the other rules
// — except under Strict, where a must-match from another rule makes the
// pair a ConflictError, so nothing is blocked.
func (o *Oracle) Pair(as, bs []*pxml.Node) *Pairing {
	p := pairings.Get().(*Pairing)
	p.o, p.na, p.elems = o, len(as), append(append(p.elems, as...), bs...)
	n := len(p.elems)
	p.in, p.ready = slices.Grow(p.in, n*len(o.rules))[:n*len(o.rules)], slices.Grow(p.ready, n)[:n]
	for _, rule := range o.rules {
		p.keys = append(p.keys, p.blockKeys(rule))
	}
	return p
}

// Release clears the Pairing — the inputs of the elements it prepared only —
// and keeps its storage for another Pair; p must not be used after.
func (p *Pairing) Release() {
	n := len(p.o.rules)
	for k, ok := range p.ready {
		if ok {
			clear(p.in[k*n : (k+1)*n])
		}
	}
	clear(p.ready)
	clear(p.keys)
	clear(p.elems)
	*p = Pairing{elems: p.elems[:0], keys: p.keys[:0], in: p.in[:0], ready: p.ready[:0], titles: p.titles.Reset()}
	pairings.Put(p)
}

// blockKeys lists the rule's key of every element, or returns nil when it
// has none for any of them.
func (p *Pairing) blockKeys(r Rule) []string {
	var keys []string
	for k, e := range p.elems {
		if key := r.BlockKey(e); key != "" {
			if keys == nil {
				keys = make([]string, len(p.elems))
			}
			keys[k] = key
		}
	}
	return keys
}

// Blocked reports whether the i-th element of the first list and the j-th
// of the second cannot match: outside Strict, a rule's keys for both differ.
func (p *Pairing) Blocked(i, j int) bool {
	for _, ks := range p.keys {
		if ks != nil && !p.o.strict && ks[i] != "" && ks[p.na+j] != "" && ks[i] != ks[p.na+j] {
			return true
		}
	}
	return false
}

// Decide is Oracle.Decide on the i-th element of the first list and the
// j-th of the second, the built-in rules comparing the two's inputs.
func (p *Pairing) Decide(i, j int) (Verdict, error) {
	return p.o.decide(p.elems[i], p.elems[p.na+j], p.inputs(i), p.inputs(p.na+j))
}

// inputs returns the built-in rules' inputs for the k-th element, deriving
// them the first time.
func (p *Pairing) inputs(k int) []input {
	n := len(p.o.rules)
	in := p.in[k*n : (k+1)*n]
	if !p.ready[k] {
		p.ready[k] = true
		e := p.elems[k]
		for r, bi := range p.o.builtins {
			// A rule reads only elements with its tag (one without a tag reads
			// none); an empty input stays unwritten, its slot holds one already.
			switch {
			case bi == nil || bi.elemTag != e.Tag():
			case bi.kind == keyField: // its input is its key, derived already
				if ks := p.keys[r]; ks != nil && ks[k] != "" {
					in[r] = input{ok: true, text: ks[k]}
				}
			default:
				if v, buf := bi.prepare(e, p.titles); v.ok {
					in[r], p.titles = v, buf
				}
			}
		}
	}
	return in
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
func (o *Oracle) Decide(a, b *pxml.Node) (Verdict, error) { return o.decide(a, b, nil, nil) }

// decide is Decide, the built-in rules comparing the inputs ia, ib if given.
func (o *Oracle) decide(a, b *pxml.Node, ia, ib []input) (Verdict, error) {
	o.calls.Add(1)
	var must, cannot string
	for r, rule := range o.rules {
		var v Verdict
		if bi := o.builtins[r]; bi != nil && ia != nil {
			v = bi.compare(a, b, &ia[r], &ib[r])
		} else {
			v = rule.Apply(a, b)
		}
		switch v.Decision {
		case MustMatch:
			if must == "" {
				must = nameOf(rule, v)
			}
		case CannotMatch:
			if cannot == "" {
				cannot = nameOf(rule, v)
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
