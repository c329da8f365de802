// Package integrate implements IMPrECISE's probabilistic data integration
// (paper §III): merging two XML documents into one probabilistic XML
// document that compactly represents every way their elements could refer
// to the same real-world objects (rwos).
//
// The process is recursive, starting from the roots of both sources. For
// each matched element pair the child sequences are integrated: "The
// Oracle" (package oracle) classifies every cross-source same-tag child
// pair as must-match, cannot-match or unknown; undecided pairs give rise to
// choice points enumerating all consistent matchings. DTD knowledge
// (package dtd) rejects impossible possibilities — e.g. a merged person
// keeping two phone numbers when the schema allows one — which is how the
// paper's Figure 2 result arises.
//
// Two structural properties keep the representation compact:
//
//   - The generic rule "no two siblings in one source refer to the same
//     rwo" restricts candidates to cross-source pairs.
//   - Independent groups of match decisions (connected components of the
//     candidate graph) become separate sibling choice points, so the node
//     count adds across groups while the world count multiplies — the
//     paper's argument for reporting #nodes rather than #worlds.
package integrate

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/dtd"
	"repro/internal/oracle"
	"repro/internal/pxml"
)

// ErrIncompatible is returned (wrapped) when two documents or elements
// cannot be integrated in any possible world, e.g. because the DTD rejects
// every matching of some mandatory-unique field.
var ErrIncompatible = errors.New("integrate: elements cannot be integrated in any world")

// ErrExplosion is returned (wrapped) when a component exceeds the
// configured matching or alternative budget and truncation is disabled.
var ErrExplosion = errors.New("integrate: possibility explosion exceeds configured budget")

// ErrMustConflict is returned (wrapped) when must-match decisions are
// mutually inconsistent (one element must-matches two siblings).
var ErrMustConflict = errors.New("integrate: conflicting must-match decisions")

// Config controls an integration run.
type Config struct {
	// Oracle decides element pair matches. Required.
	Oracle *oracle.Oracle
	// Schema provides cardinality knowledge for possibility reduction.
	// Optional; nil means no schema pruning.
	Schema *dtd.Schema
	// WeightA is the relative trust in source A when a matched pair has
	// conflicting text values; the A value gets probability WeightA and
	// the B value 1−WeightA. It must lie in the half-open interval (0,1]
	// — 1 means full trust in source A — or be zero, which means the
	// default 0.5. Integrate rejects negative or >1 weights.
	WeightA float64
	// Workers is accepted and ignored: integration runs on the calling
	// goroutine. On two cores a worker pool cost more CPU per integration
	// than it saved (DESIGN.md, "One-goroutine integration").
	Workers int
	// MaxMatchingsPerComponent bounds the matchings enumerated for one
	// candidate component. Zero means the default (200000).
	MaxMatchingsPerComponent int
	// TruncateOnExplosion keeps the matchings enumerated so far (plus
	// renormalization) instead of failing when a budget is exceeded.
	TruncateOnExplosion bool
	// SkipNormalize leaves the raw integration result unnormalized
	// (duplicate alternatives unmerged). Mainly for diagnostics.
	SkipNormalize bool
	// DisableComponentFactorization turns off the independence
	// optimization and integrates each child tag group as a single
	// component. Exists for the ablation experiment (DESIGN E8); never
	// use it otherwise.
	DisableComponentFactorization bool
	// Memo is accepted and ignored (see Memo).
	Memo *Memo
}

// Memo is accepted and ignored: an integration keeps nothing across calls.
// NewMemo, Purge and Config.Memo are no-ops, kept so that callers written
// against the retired cross-call verdict and merge cache still compile.
type Memo struct{}

// NewMemo returns a Memo; maxEntries is ignored.
func NewMemo(maxEntries int) *Memo { return &Memo{} }

// Purge does nothing.
func (m *Memo) Purge() {}

const (
	defaultMaxMatchings = 200000
	// maxAlternatives bounds the possibility count of one choice point
	// after value-conflict expansion.
	maxAlternatives = 1000000
)

func (c Config) maxMatchings() int {
	if c.MaxMatchingsPerComponent > 0 {
		return c.MaxMatchingsPerComponent
	}
	return defaultMaxMatchings
}

func (c Config) weightA() float64 {
	if c.WeightA > 0 {
		return c.WeightA
	}
	return 0.5
}

// Stats reports what the integration did; the paper's Table I and Figure 5
// are computed from the node counts of the result plus these counters.
//
// The four pair counters count pairs put to the Oracle. A same-tag pair the
// rules' blocking keys rule out (oracle.Rule.BlockKey — two movies with
// different certain years) is a certain cannot-match that never becomes a
// candidate: it is in none of them, so OracleCalls and CannotPairs are
// smaller than the same-tag cross product by the number of blocked pairs,
// while MustPairs and UndecidedPairs are what they would be without keys.
type Stats struct {
	OracleCalls    int // pairs put to the Oracle
	MustPairs      int // pairs decided must-match
	CannotPairs    int // pairs the Oracle decided cannot-match (blocked pairs are not asked)
	UndecidedPairs int // pairs the Oracle could not decide absolutely

	Components          int // candidate components (choice points created)
	LargestComponent    int // edges in the largest component
	MatchingsEnumerated int // total matchings across components
	MatchingsPruned     int // matchings rejected by DTD knowledge
	PossibilitiesBuilt  int // alternatives after value-conflict expansion
	IncompatibleMerges  int // pair merges rejected recursively
	TruncatedComponents int // components cut off by budget (truncate mode)
	ValueConflicts      int // matched leaf pairs with conflicting text

	// SplicedChildren counts certain child elements carried into the
	// result verbatim because the other source had no candidate for them
	// — the delta-integration path that makes a small source cost time
	// proportional to what it touches: a spliced child is not merged, the
	// pairs its blocking key rules out are never enumerated, its keys and
	// rule inputs come from the Oracle's table, and at the root its
	// summary is not merged into the parent's again. What remains per
	// spliced child is a map-free pass or two and one table look-up.
	SplicedChildren int
}

// MarshalJSON writes every field, then the retired VerdictMemoHits and
// MergeMemoHits as zeros: the keys journals, snapshot manifests and
// replication pages have always carried, so a record keeps the size every
// log offset is computed from. Decoding needs no counterpart: the retired
// keys are unknown, and ignored.
func (s Stats) MarshalJSON() ([]byte, error) {
	type fields Stats // every field of Stats, without this method
	return json.Marshal(struct {
		fields
		VerdictMemoHits, MergeMemoHits int
	}{fields: fields(s)})
}

// Merge folds another run's counters into s — summing, with
// LargestComponent as a watermark — for callers aggregating the stats of
// a multi-source batch.
func (s *Stats) Merge(o Stats) {
	s.OracleCalls += o.OracleCalls
	s.MustPairs += o.MustPairs
	s.CannotPairs += o.CannotPairs
	s.UndecidedPairs += o.UndecidedPairs
	s.Components += o.Components
	if o.LargestComponent > s.LargestComponent {
		s.LargestComponent = o.LargestComponent
	}
	s.MatchingsEnumerated += o.MatchingsEnumerated
	s.MatchingsPruned += o.MatchingsPruned
	s.PossibilitiesBuilt += o.PossibilitiesBuilt
	s.IncompatibleMerges += o.IncompatibleMerges
	s.TruncatedComponents += o.TruncatedComponents
	s.ValueConflicts += o.ValueConflicts
	s.SplicedChildren += o.SplicedChildren
}

// Integrate merges two documents into one probabilistic document. Both
// inputs must have a certain root element with the same tag (the paper
// assumes schemas are already aligned). The inputs are not modified;
// subtrees of the inputs are shared into the result.
func Integrate(a, b *pxml.Tree, cfg Config) (*pxml.Tree, *Stats, error) {
	if cfg.Oracle == nil {
		return nil, nil, errors.New("integrate: Config.Oracle is required")
	}
	if cfg.WeightA < 0 || cfg.WeightA > 1 || math.IsNaN(cfg.WeightA) {
		return nil, nil, fmt.Errorf("integrate: Config.WeightA %g outside (0,1] (0 means the default 0.5)", cfg.WeightA)
	}
	rootA, err := certainRoot(a, "A")
	if err != nil {
		return nil, nil, err
	}
	rootB, err := certainRoot(b, "B")
	if err != nil {
		return nil, nil, err
	}
	if rootA.Tag() != rootB.Tag() {
		return nil, nil, fmt.Errorf("integrate: root tags differ: <%s> vs <%s> (align schemas first)", rootA.Tag(), rootB.Tag())
	}
	it := &integrator{cfg: cfg, merges: make(map[pair]mergeResult), rootA: rootA}
	alts, err := it.mergePair(rootA, rootB)
	if err != nil {
		return nil, nil, fmt.Errorf("integrate: root elements: %w", err)
	}
	poss := make([]*pxml.Node, len(alts))
	for i, alt := range alts {
		poss[i] = pxml.NewPoss(alt.w, alt.elem)
	}
	tree := pxml.MustTree(pxml.NewProb(poss...))
	if !cfg.SkipNormalize {
		tree, err = tree.Normalize()
		if err != nil {
			return nil, nil, fmt.Errorf("integrate: normalize: %w", err)
		}
	}
	// The merged root element is the wide one: most of its children are
	// rootA's, spliced. Its summary is rootA's with the children that left
	// taken out and the new ones put in, when rootA has one; normalizing
	// keeps its children in place, so from still holds.
	if els := tree.RootElements(); len(alts) == 1 && len(els) == 1 && it.rootFrom != nil {
		it.work.summaries, it.work.fullSummary = pxml.DeriveSummary(els[0], rootA, it.rootFrom)
	}
	if noteRootWork != nil {
		noteRootWork(it.work)
	}
	return tree, &it.stats, nil
}

// rootWork is what one integration did at the root element's children —
// the catalog level — counted for tests (export_test.go) and kept out of
// the journalled Stats.
type rootWork struct {
	pairs, calls int  // pairs the join enumerated; pairs put to the Oracle
	keys, inputs int  // elements whose keys, inputs the Pairing derived
	summaries    int  // child summaries merged into the merged root's summary
	fullSummary  bool // a removed child held a maximum: all were merged
}

// noteRootWork, when set, receives every integration's rootWork.
var noteRootWork func(rootWork)

func certainRoot(t *pxml.Tree, label string) (*pxml.Node, error) {
	if t == nil {
		return nil, fmt.Errorf("integrate: source %s is nil", label)
	}
	elems := t.RootElements()
	if len(elems) != 1 {
		return nil, fmt.Errorf("integrate: source %s must have a single certain root element", label)
	}
	return elems[0], nil
}

// pair keys the per-call merge table by the two source elements' identity.
type pair struct{ a, b *pxml.Node }

// weightedElem is one alternative form of a merged element.
type weightedElem struct {
	elem *pxml.Node
	w    float64
}

type mergeResult struct {
	alts []weightedElem
	err  error
}

type integrator struct {
	cfg   Config
	stats Stats
	// rootA is source A's root element; rootFrom records, for each child of
	// the merged root, its position among rootA's children or -1 (see
	// integrateChildren), and work what the root's children cost.
	rootA    *pxml.Node
	rootFrom []int
	work     rootWork
	// merges holds every pair merge of this call by the two elements'
	// identity: a pair merged in many matchings is computed — and its
	// subtree allocated — once, and shared.
	merges map[pair]mergeResult
}

// decide returns the verdict on pair (i, j) of p and accounts for it.
func (it *integrator) decide(p *oracle.Pairing, i, j int) oracle.Verdict {
	v := p.Decide(i, j)
	it.stats.OracleCalls++
	switch v.Decision {
	case oracle.MustMatch:
		it.stats.MustPairs++
	case oracle.CannotMatch:
		it.stats.CannotPairs++
	default:
		it.stats.UndecidedPairs++
	}
	return v
}

// mergePair integrates two elements that are assumed to refer to the same
// rwo. It returns the alternative merged forms (more than one when their
// text values conflict) with weights summing to 1, or ErrIncompatible when
// no world allows the merge. The result, error included, is kept for the
// rest of the call.
func (it *integrator) mergePair(x, y *pxml.Node) ([]weightedElem, error) {
	k := pair{x, y}
	if r, ok := it.merges[k]; ok {
		return r.alts, r.err
	}
	alts, err := it.mergePairUncached(x, y)
	if err != nil && errors.Is(err, ErrIncompatible) {
		it.stats.IncompatibleMerges++
	}
	it.merges[k] = mergeResult{alts, err}
	return alts, err
}

func (it *integrator) mergePairUncached(x, y *pxml.Node) ([]weightedElem, error) {
	kids, err := it.integrateChildren(x, y)
	if err != nil {
		return nil, err
	}
	tx, ty := x.Text(), y.Text()
	switch {
	case tx == ty, ty == "":
		return []weightedElem{{elem: pxml.NewElem(x.Tag(), tx, kids...), w: 1}}, nil
	case tx == "":
		return []weightedElem{{elem: pxml.NewElem(x.Tag(), ty, kids...), w: 1}}, nil
	default:
		// Conflicting values. A domain reconciler may canonicalize them
		// ("Woo, John" and "John Woo" denote the same name); otherwise the
		// merged element's value is uncertain and both variants share the
		// merged children.
		if v, ok := it.cfg.Oracle.Reconcile(x.Tag(), tx, ty); ok {
			return []weightedElem{{elem: pxml.NewElem(x.Tag(), v, kids...), w: 1}}, nil
		}
		it.stats.ValueConflicts++
		wa := it.cfg.weightA()
		if wa == 1 {
			// Full trust in source A: the B variant would be a
			// zero-probability possibility, so it is not represented.
			return []weightedElem{{elem: pxml.NewElem(x.Tag(), tx, kids...), w: 1}}, nil
		}
		return []weightedElem{
			{elem: pxml.NewElem(x.Tag(), tx, kids...), w: wa},
			{elem: pxml.NewElem(x.Tag(), ty, kids...), w: 1 - wa},
		}, nil
	}
}
