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

// Oracle evaluates rules over element pairs. Decide, Pair and Reconcile are
// safe for concurrent use (different databases integrate concurrently)
// provided the installed rules, estimators and reconcilers are pure
// functions of their inputs; the call counters are atomic, and the table
// of derived keys and inputs (see Pairing.Retain) is behind a lock. A
// Pairing is not: it belongs to one integrateChildren call and one
// goroutine.
type Oracle struct {
	rules       []Rule
	builtins    []*builtin // builtins[r] is rules[r] when built in this package, else nil
	keyRules    []int      // the rules that may have blocking keys: KeyField and those built elsewhere
	estimators  map[string]Estimator
	reconcilers map[string]Reconciler
	calls       atomic.Int64
	undecided   atomic.Int64

	// mu guards table, the entries the last Pairing.Retain kept by node,
	// and spare, the map the next Retain fills and swaps in.
	mu           sync.Mutex
	table, spare map[*pxml.Node]*entry
}

// Option configures an Oracle.
type Option func(*Oracle)

// WithEstimator installs a probability estimator for undecided pairs of
// elements with the given tag. Estimates are clamped into
// [ProbFloor, 1-ProbFloor] so an estimator cannot silently make absolute
// decisions.
func WithEstimator(tag string, e Estimator) Option {
	return func(o *Oracle) { o.estimators[tag] = e }
}

// WithReconciler installs a value reconciler for matched leaves with the
// given tag, e.g. canonicalizing "Woo, John" and "John Woo" to one form
// instead of keeping both as possibilities.
func WithReconciler(tag string, r Reconciler) Option {
	return func(o *Oracle) { o.reconcilers[tag] = r }
}

// ProbFloor bounds Unknown estimates away from the absolute decisions.
const ProbFloor = 0.01

// prior is the match probability of an undecided pair whose tag has no
// estimator.
const prior = 0.5

// New builds an Oracle with the given rules, applied in order. The paper's
// generic rule "two deep-equal elements refer to the same rwo" is always
// present; the other generic rule ("no two siblings in one source refer to
// the same rwo") is structural and enforced by the integration engine.
func New(rules []Rule, opts ...Option) *Oracle {
	o := &Oracle{
		rules:       append([]Rule{DeepEqual()}, rules...),
		estimators:  make(map[string]Estimator),
		reconcilers: make(map[string]Reconciler),
	}
	for _, opt := range opts {
		opt(o)
	}
	o.builtins = make([]*builtin, len(o.rules))
	for r, rule := range o.rules {
		o.builtins[r], _ = rule.(*builtin)
		if bi := o.builtins[r]; bi == nil || bi.kind == keyField {
			o.keyRules = append(o.keyRules, r)
		}
	}
	return o
}

// Pairing decides the pairs of two lists of elements — the certain
// children of two elements being integrated — by their indices. Of every
// element it needs the blocking keys up front, and the built-in rules'
// inputs (see builtin) when its first pair is decided; a KeyField rule's
// input is the key itself. Both are pure functions of (rule, element), so
// the Oracle keeps them by node in a table: what Pair finds there it does
// not derive again, and Retain replaces the table by what the call's
// surviving elements need. A changed rule set is a new Oracle, with an
// empty table. Release pools the Pairing's own storage.
type Pairing struct {
	o *Oracle
	// elems lists the first list's na elements and then the second's; ents[k]
	// is what is known of the k-th, from the table or derived in this call
	// (own[k]) into the pooled storage below.
	elems []*pxml.Node
	na    int
	ents  []*entry
	own   []bool
	// keyed lists the rules some element has a key under; join is the one
	// the second list is bucketed by (-1 for none): its elements with key
	// k are buckets[bucketOf[k]], those without keyless.
	keyed    []int
	join     int
	bucketOf map[string]int
	buckets  [][]int
	keyless  []int
	cand     []int
	kept     []int

	fresh         []entry // capacity len(elems): own entries never move
	keys          []string
	ins           []input
	titles        strsim.TitleBuf
	derivedKeys   int
	derivedInputs int
}

// entry is what a Pairing knows of one element: keys[r] is its key under
// rules[r] (nil where none has one) and in[r] its input for that rule (nil
// until derived). An entry in the Oracle's table is never written again.
type entry struct {
	keys []string
	in   []input
}

var pairings = sync.Pool{New: func() any { return &Pairing{bucketOf: map[string]int{}} }}

// Pair prepares to decide the pairs of two lists of elements: it takes every
// element's entry from the Oracle's table or derives its blocking keys, and
// buckets the second list by the first rule any of its elements has a key
// under. A pair it reports blocked is one Decide answers CannotMatch: a
// rule's keys differ, so it decides cannot-match (the BlockKey contract),
// which prevails over the other rules.
func (o *Oracle) Pair(as, bs []*pxml.Node) *Pairing {
	p := pairings.Get().(*Pairing)
	p.o, p.na, p.elems = o, len(as), append(append(p.elems, as...), bs...)
	n := len(p.elems)
	p.ents, p.own = slices.Grow(p.ents, n)[:n], slices.Grow(p.own, n)[:n]
	p.fresh = slices.Grow(p.fresh, n)
	o.mu.Lock()
	for k, e := range p.elems {
		p.ents[k] = o.table[e]
	}
	o.mu.Unlock()
	for k, e := range p.elems {
		if p.ents[k] == nil {
			p.ents[k], p.own[k] = p.newEntry(p.deriveKeys(e)), true
			p.derivedKeys++
		}
	}
	p.bucket()
	return p
}

// newEntry returns an entry of the call's own storage holding keys.
func (p *Pairing) newEntry(keys []string) *entry {
	p.fresh = append(p.fresh, entry{keys: keys})
	return &p.fresh[len(p.fresh)-1]
}

// deriveKeys returns e's key under every rule, in the pooled storage, or nil
// when it has none.
func (p *Pairing) deriveKeys(e *pxml.Node) []string {
	var keys []string
	for _, r := range p.o.keyRules {
		if k := p.o.rules[r].BlockKey(e); k != "" {
			if keys == nil {
				lo := len(p.keys)
				p.keys = slices.Grow(p.keys, len(p.o.rules))[:lo+len(p.o.rules)]
				keys = p.keys[lo:len(p.keys):len(p.keys)]
			}
			keys[r] = k
		}
	}
	return keys
}

func (p *Pairing) key(k, r int) string {
	if ks := p.ents[k].keys; ks != nil {
		return ks[r]
	}
	return ""
}

// bucket notes the keyed rules and buckets the second list by the first of
// them a second-list element has a key under.
func (p *Pairing) bucket() {
	p.join = -1
	for _, r := range p.o.keyRules {
		// The last element with a key is in the second list if any there is.
		k := len(p.elems) - 1
		for k >= 0 && p.key(k, r) == "" {
			k--
		}
		if k < 0 {
			continue
		}
		p.keyed = append(p.keyed, r)
		if p.join < 0 && k >= p.na {
			p.join = r
		}
	}
	if p.join < 0 {
		return
	}
	for j := range len(p.elems) - p.na {
		key := p.key(p.na+j, p.join)
		if key == "" {
			p.keyless = append(p.keyless, j)
			continue
		}
		b, ok := p.bucketOf[key]
		if !ok {
			b = len(p.buckets)
			p.bucketOf[key] = b
			if b < cap(p.buckets) {
				p.buckets = p.buckets[:b+1]
				p.buckets[b] = p.buckets[b][:0]
			} else {
				p.buckets = append(p.buckets, nil)
			}
		}
		p.buckets[b] = append(p.buckets[b], j)
	}
}

// Candidates lists, ascending, the indices j of the second list whose pair
// with the i-th element of the first is not blocked. It enumerates only the
// j the bucketing leaves — same key, or no key — so a call costs what it
// returns, not the length of the second list. The slice is valid until the
// next call.
func (p *Pairing) Candidates(i int) []int {
	p.cand = p.cand[:0]
	key := ""
	if p.join >= 0 {
		key = p.key(i, p.join)
	}
	if key == "" {
		for j := range len(p.elems) - p.na {
			if !p.Blocked(i, j) {
				p.cand = append(p.cand, j)
			}
		}
		return p.cand
	}
	var same []int
	if b, ok := p.bucketOf[key]; ok {
		same = p.buckets[b]
	}
	for x, y := 0, 0; x < len(same) || y < len(p.keyless); {
		var j int
		if y == len(p.keyless) || x < len(same) && same[x] < p.keyless[y] {
			j, x = same[x], x+1
		} else {
			j, y = p.keyless[y], y+1
		}
		if !p.Blocked(i, j) {
			p.cand = append(p.cand, j)
		}
	}
	return p.cand
}

// Blocked reports whether the i-th element of the first list and the j-th
// of the second cannot match: a rule's keys for both differ.
func (p *Pairing) Blocked(i, j int) bool {
	for _, r := range p.keyed {
		if ka, kb := p.key(i, r), p.key(p.na+j, r); ka != "" && kb != "" && ka != kb {
			return true
		}
	}
	return false
}

// Decide is Oracle.Decide on the i-th element of the first list and the
// j-th of the second, the built-in rules comparing the two's inputs.
func (p *Pairing) Decide(i, j int) Verdict {
	return p.o.decide(p.elems[i], p.elems[p.na+j], p.inputs(i), p.inputs(p.na+j))
}

// inputs returns the built-in rules' inputs for the k-th element, deriving
// them the first time; a table entry without them is copied into the call's
// own storage first.
func (p *Pairing) inputs(k int) []input {
	ent := p.ents[k]
	if ent.in != nil {
		return ent.in
	}
	if !p.own[k] {
		ent = p.newEntry(ent.keys)
		p.ents[k], p.own[k] = ent, true
	}
	p.derivedInputs++
	n := len(p.o.rules)
	p.ins = slices.Grow(p.ins, n)
	in := p.ins[len(p.ins) : len(p.ins)+n : len(p.ins)+n]
	p.ins = p.ins[:len(p.ins)+n]
	e := p.elems[k]
	for r, bi := range p.o.builtins {
		// A rule reads only elements with its tag (one without a tag reads
		// none, but for deepEqual, which reads every element); an empty
		// input stays unwritten, its slot holds one already.
		switch {
		case bi == nil:
		case bi.kind == deepEqual:
			in[r], _ = bi.prepare(e, p.titles)
		case bi.elemTag != e.Tag():
		case bi.kind == keyField: // its input is its key, derived already
			if key := p.key(k, r); key != "" {
				in[r] = input{ok: true, text: key}
			}
		default:
			if v, buf := bi.prepare(e, p.titles); v.ok {
				in[r], p.titles = v, buf
			}
		}
	}
	ent.in = in
	return in
}

// Derived reports how many elements this Pairing derived the keys, and the
// inputs, of rather than finding them in the Oracle's table.
func (p *Pairing) Derived() (keys, inputs int) { return p.derivedKeys, p.derivedInputs }

// Retain replaces the Oracle's table by the entries of the elements kept
// reports — k indexing the first list and then the second — so that the
// next Pair over them derives nothing. The caller keeps the elements that
// survive into its result by pointer; an element it drops, and every other
// entry the table held, is forgotten, so the table holds what the current
// document can still hand a Pairing and nothing that is gone. Entries this
// call derived are copied out of its pooled storage first.
func (p *Pairing) Retain(kept func(k int) bool) {
	nk, ni := 0, 0
	for k := range p.elems {
		if kept(k) {
			p.kept = append(p.kept, k)
			if p.own[k] {
				nk += len(p.ents[k].keys)
				ni += len(p.ents[k].in)
			}
		}
	}
	keys, ins := make([]string, 0, nk), make([]input, 0, ni)
	var titles strsim.TitleBuf
	for _, k := range p.kept {
		if !p.own[k] {
			continue
		}
		ent := p.ents[k]
		lo, ilo := len(keys), len(ins)
		keys, ins = append(keys, ent.keys...), append(ins, ent.in...)
		for r, bi := range p.o.builtins {
			if bi != nil && bi.kind == title && ilo < len(ins) && ins[ilo+r].ok {
				ins[ilo+r].title, titles = titles.Append(ins[ilo+r].title)
			}
		}
		p.ents[k] = &entry{keys: clip(keys[lo:]), in: clip(ins[ilo:])}
	}
	o := p.o
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.spare == nil {
		o.spare = make(map[*pxml.Node]*entry, len(p.kept))
	}
	clear(o.spare)
	for _, k := range p.kept {
		o.spare[p.elems[k]] = p.ents[k]
	}
	o.table, o.spare = o.spare, o.table
}

// clip returns s without spare capacity, nil when empty.
func clip[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s[:len(s):len(s)]
}

// Release clears the Pairing and keeps its storage for another Pair; p must
// not be used after.
func (p *Pairing) Release() {
	clear(p.elems)
	clear(p.ents)
	clear(p.own)
	clear(p.fresh)
	clear(p.keys)
	clear(p.ins)
	clear(p.bucketOf)
	*p = Pairing{
		elems: p.elems[:0], ents: p.ents[:0], own: p.own[:0], keyed: p.keyed[:0],
		bucketOf: p.bucketOf, buckets: p.buckets[:0], keyless: p.keyless[:0], cand: p.cand[:0], kept: p.kept[:0],
		fresh: p.fresh[:0], keys: p.keys[:0], ins: p.ins[:0], titles: p.titles.Reset(),
	}
	pairings.Put(p)
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
// are consulted (not just the first decisive one): a must-match and a
// cannot-match on one pair resolve to cannot-match. With multiple agreeing
// decisive rules the first one is reported. An undecided pair gets the
// prior 0.5, or the estimate of the estimator installed for its tag. The
// error is always nil: rule conflicts resolve, they do not fail. The
// second result is kept for benchmark/trace.go, which takes two.
func (o *Oracle) Decide(a, b *pxml.Node) (Verdict, error) { return o.decide(a, b, nil, nil), nil }

// decide is Decide, the built-in rules comparing the inputs ia, ib if given.
func (o *Oracle) decide(a, b *pxml.Node, ia, ib []input) Verdict {
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
		// A cannot-match is the safer absolute decision: it keeps both
		// elements rather than fabricating a merge.
		return Verdict{Decision: CannotMatch, P: 0, Rule: cannot + " (overrides " + must + ")"}
	case must != "":
		return Verdict{Decision: MustMatch, P: 1, Rule: must}
	case cannot != "":
		return Verdict{Decision: CannotMatch, P: 0, Rule: cannot}
	}
	o.undecided.Add(1)
	if est, ok := o.estimators[a.Tag()]; ok {
		return Verdict{Decision: Unknown, P: clamp(est(a, b)), Rule: "estimator"}
	}
	return Verdict{Decision: Unknown, P: prior, Rule: "prior"}
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
