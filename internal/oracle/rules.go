package oracle

import (
	"fmt"
	"strings"

	"repro/internal/pxml"
	"repro/internal/strsim"
)

// funcRule adapts a function to the Rule interface. key is nil for a rule
// without blocking keys.
type funcRule struct {
	name string
	fn   func(a, b *pxml.Node) Verdict
	key  func(e *pxml.Node) string
}

func (r funcRule) Name() string                  { return r.name }
func (r funcRule) Apply(a, b *pxml.Node) Verdict { return r.fn(a, b) }
func (r funcRule) BlockKey(e *pxml.Node) string {
	if r.key == nil {
		return ""
	}
	return r.key(e)
}
func abstain() Verdict { return Verdict{Decision: Unknown} }
func decide(d Decision, name string) Verdict {
	p := 0.0
	if d == MustMatch {
		p = 1
	}
	return Verdict{Decision: d, P: p, Rule: name}
}

// NewRule builds a custom rule from a function. It has no blocking keys:
// every pair reaches fn.
func NewRule(name string, fn func(a, b *pxml.Node) Verdict) Rule {
	return funcRule{name: name, fn: fn}
}

// DeepEqual is the paper's generic rule: two deep-equal elements refer to
// the same real-world object. It never decides cannot-match. Equal digests
// settle it without a walk (structurally equal subtrees are deep-equal, up
// to the digest's collision odds); unequal ones still need it, because deep
// equality ignores how certain children are grouped into trivial choice
// points and the digest does not.
func DeepEqual() Rule {
	return funcRule{name: "deep-equal", fn: func(a, b *pxml.Node) Verdict {
		if pxml.Hash(a) == pxml.Hash(b) || pxml.DeepEqualElems(a, b) {
			return decide(MustMatch, "deep-equal")
		}
		return abstain()
	}}
}

// ExactLeaf implements "no typos occur in <tag>" rules — the paper's genre
// rule. For leaf elements with the given tag it decides must-match on equal
// text and cannot-match on different text, eliminating the "same value with
// a typo" possibility. It abstains for other tags and for non-leaves.
func ExactLeaf(tag string) Rule {
	name := fmt.Sprintf("no-typos(%s)", tag)
	return funcRule{name: name, fn: func(a, b *pxml.Node) Verdict {
		if a.Tag() != tag || b.Tag() != tag || !isLeafish(a) || !isLeafish(b) {
			return abstain()
		}
		if a.Text() == b.Text() {
			return decide(MustMatch, name)
		}
		return decide(CannotMatch, name)
	}}
}

// isLeafish reports whether an element carries only a text value (no
// element children under any alternative).
func isLeafish(e *pxml.Node) bool {
	if e.IsLeaf() {
		return true
	}
	for _, prob := range e.Children() {
		for _, poss := range prob.Children() {
			if len(poss.Children()) > 0 {
				return false
			}
		}
	}
	return true
}

// KeyField implements "elements with different <field> cannot match" rules
// — the paper's year rule ("movies of different years cannot match"). It
// compares the certain text of the field child and decides cannot-match on
// inequality; it abstains when either side's field is absent or uncertain,
// and on equality (same year does not imply same movie). The certain field
// text is the element's blocking key: two present, different keys are
// exactly the pairs the rule decides.
func KeyField(elemTag, fieldTag string) Rule {
	name := fmt.Sprintf("key-field(%s/%s)", elemTag, fieldTag)
	key := func(e *pxml.Node) string {
		if e.Tag() != elemTag {
			return ""
		}
		return pxml.CertainText(e, fieldTag)
	}
	return funcRule{name: name, key: key, fn: func(a, b *pxml.Node) Verdict {
		if va, vb := key(a), key(b); va != "" && vb != "" && va != vb {
			return decide(CannotMatch, name)
		}
		return abstain()
	}}
}

// Similarity implements "elements cannot match unless <field> is
// sufficiently similar" rules — the paper's title rule. Pairs whose field
// similarity falls below the threshold are cannot-match; otherwise the rule
// abstains. Absent or uncertain fields abstain.
func Similarity(elemTag, fieldTag string, sim func(a, b string) float64, threshold float64) Rule {
	return similarity(elemTag, fieldTag, threshold, func(a, b string) bool { return sim(a, b) < threshold })
}

// similarity is the one body of every Similarity rule. All it needs of the
// measure is below — whether two field values fall short of the threshold —
// which a measure can often say for less than its value costs (see
// strsim.TitleBelow).
func similarity(elemTag, fieldTag string, threshold float64, below func(a, b string) bool) Rule {
	name := fmt.Sprintf("similarity(%s/%s<%.2g)", elemTag, fieldTag, threshold)
	return funcRule{name: name, fn: func(a, b *pxml.Node) Verdict {
		if a.Tag() != elemTag || b.Tag() != elemTag {
			return abstain()
		}
		va := pxml.CertainText(a, fieldTag)
		vb := pxml.CertainText(b, fieldTag)
		if va == "" || vb == "" {
			return abstain()
		}
		if below(va, vb) {
			return decide(CannotMatch, name)
		}
		return abstain()
	}}
}

// NameEquivalence decides leaf name elements (e.g. directors) by naming
// convention: convention-equivalent names ("Woo, John" vs "John Woo") are
// must-match, clearly different names are cannot-match, and near-miss
// names (possible typos) remain undecided. This captures the paper's
// observation that sources "use different conventions for naming
// directors, so these never match exactly".
func NameEquivalence(tag string, typoThreshold float64) Rule {
	name := fmt.Sprintf("name-equivalence(%s)", tag)
	return funcRule{name: name, fn: func(a, b *pxml.Node) Verdict {
		if a.Tag() != tag || b.Tag() != tag || !isLeafish(a) || !isLeafish(b) {
			return abstain()
		}
		if strsim.SameName(a.Text(), b.Text()) {
			return decide(MustMatch, name)
		}
		if strsim.NameSim(a.Text(), b.Text()) < typoThreshold {
			return decide(CannotMatch, name)
		}
		return abstain()
	}}
}

// The movie-domain rule set of the paper's §V, with the thresholds used
// throughout the reproduction.

// GenreRule is the paper's "no typos occur in genres".
func GenreRule() Rule { return ExactLeaf("genre") }

// TitleThreshold is the similarity below which two movies cannot be the
// same (paper: "not sufficiently similar").
const TitleThreshold = 0.55

// TitleRule is the paper's "two movies cannot match if their titles are
// not sufficiently similar".
func TitleRule() Rule {
	return similarity("movie", "title", TitleThreshold, func(a, b string) bool {
		return strsim.TitleBelow(a, b, TitleThreshold)
	})
}

// YearRule is the paper's "movies of different years cannot match".
func YearRule() Rule { return KeyField("movie", "year") }

// DirectorRule decides director leaves by naming convention.
func DirectorRule() Rule { return NameEquivalence("director", 0.90) }

// NameReconciler canonicalizes convention-equivalent person names to the
// "First Last" form, so matched directors do not leave a spurious value
// choice behind. Non-equivalent names are left unreconciled.
func NameReconciler() Reconciler {
	return func(a, b string) (string, bool) {
		if !strsim.SameName(a, b) {
			return "", false
		}
		// Prefer the form without the "Last, First" comma.
		if !strings.Contains(a, ",") {
			return a, true
		}
		if !strings.Contains(b, ",") {
			return b, true
		}
		return a, true
	}
}

// TitleEstimator estimates the match probability of two undecided movies
// from their title similarity, so that rankings reflect likelihood (used
// for the paper's §VI query experiments). Clamping in the Oracle keeps the
// estimate away from absolute decisions.
func TitleEstimator() Estimator {
	return func(a, b *pxml.Node) float64 {
		ta := pxml.CertainText(a, "title")
		tb := pxml.CertainText(b, "title")
		if ta == "" || tb == "" {
			return 0.5
		}
		s := strsim.TitleSim(ta, tb)
		// Map similarity in [threshold, 1] onto a match probability in
		// roughly [0.2, 0.8]: similar titles are likelier merges but never
		// certain.
		return 0.2 + 0.6*(s-TitleThreshold)/(1-TitleThreshold)
	}
}

// RuleSet is a named bundle of rules matching the rows of the paper's
// Table I.
type RuleSet int

const (
	// SetNone is only the generic deep-equal rule (the table's "none").
	SetNone RuleSet = iota
	// SetGenre adds the genre rule.
	SetGenre
	// SetTitle adds the movie title rule.
	SetTitle
	// SetGenreTitle adds genre and title rules.
	SetGenreTitle
	// SetGenreTitleYear adds genre, title and year rules.
	SetGenreTitleYear
	// SetFull adds all domain rules including director name equivalence.
	SetFull
)

// String names the rule set as in the paper's Table I.
func (s RuleSet) String() string {
	switch s {
	case SetNone:
		return "none"
	case SetGenre:
		return "Genre rule"
	case SetTitle:
		return "Movie title rule"
	case SetGenreTitle:
		return "Genre and movie title rule"
	case SetGenreTitleYear:
		return "Genre, movie title and year rule"
	case SetFull:
		return "All rules (incl. director)"
	default:
		return fmt.Sprintf("RuleSet(%d)", int(s))
	}
}

// Rules returns the domain rules of the set.
func (s RuleSet) Rules() []Rule {
	switch s {
	case SetGenre:
		return []Rule{GenreRule()}
	case SetTitle:
		return []Rule{TitleRule()}
	case SetGenreTitle:
		return []Rule{GenreRule(), TitleRule()}
	case SetGenreTitleYear:
		return []Rule{GenreRule(), TitleRule(), YearRule()}
	case SetFull:
		return []Rule{GenreRule(), TitleRule(), YearRule(), DirectorRule()}
	default:
		return nil
	}
}

// MovieOracle builds the Oracle used in the movie experiments: the given
// rule set plus the title-similarity estimator for undecided movie pairs.
// The full rule set also reconciles director-name conventions.
func MovieOracle(s RuleSet, opts ...Option) *Oracle {
	all := []Option{WithEstimator("movie", TitleEstimator())}
	if s == SetFull {
		all = append(all, WithReconciler("director", NameReconciler()))
	}
	all = append(all, opts...)
	return New(s.Rules(), all...)
}
