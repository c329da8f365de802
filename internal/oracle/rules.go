package oracle

import (
	"fmt"
	"strings"

	"repro/internal/pxml"
	"repro/internal/strsim"
)

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
	return &builtin{kind: custom, name: name, fn: fn}
}

type kind uint8

const (
	custom kind = iota + 1
	deepEqual
	exactLeaf
	nameEquivalence
	keyField
	similarity
	title
)

// builtin is every rule built in this package, told apart by kind and split
// in two: prepare derives what the rule reads of one element (a title into
// buf, returned grown), compare decides a pair from two inputs, and Apply(a,
// b) is compare(a, b, prepare(a), prepare(b)). A Pairing prepares each
// element once; a Rule implemented elsewhere it asks through Apply.
type builtin struct {
	kind           kind
	name           string
	elemTag, field string           // the tag the rule reads, and its field child's
	threshold      float64          // similarity, nameEquivalence: below it is cannot-match
	cut            strsim.Threshold // title: below it is cannot-match
	sim            func(a, b string) float64
	fn             func(a, b *pxml.Node) Verdict // custom
}

// input is what a builtin rule reads of one element.
type input struct {
	ok    bool         // the rule reads the element (tag, leaf, key, certain field)
	shape uint32       // deepEqual: the element's shape digest, cut to fit beside ok
	text  string       // the leaf or field text, or the key
	title strsim.Title // title: the field text, prepared
}

func (r *builtin) Name() string { return r.name }

// BlockKey is keyField's key, the certain field text; other rules have none.
func (r *builtin) BlockKey(e *pxml.Node) string {
	if r.kind != keyField || e.Tag() != r.elemTag {
		return ""
	}
	return pxml.CertainText(e, r.field)
}

// Apply prepares titles on the stack: compareTitles, unlike compare, hands
// nothing to a function it does not know, which would move them to the heap.
// It prepares no shape digest: a digest walks a whole subtree to spare the
// walks of the pairs to come, and a single pair's walk stops at its first
// difference.
func (r *builtin) Apply(a, b *pxml.Node) Verdict {
	switch r.kind {
	case title:
		var space strsim.TitleSpace
		pa, buf := r.prepare(a, space.Buf())
		pb, _ := r.prepare(b, buf)
		return r.compareTitles(&pa, &pb)
	case deepEqual:
		return r.compare(a, b, &input{}, &input{})
	}
	pa, _ := r.prepare(a, strsim.TitleBuf{})
	pb, _ := r.prepare(b, strsim.TitleBuf{})
	return r.compare(a, b, &pa, &pb)
}

func (r *builtin) prepare(e *pxml.Node, buf strsim.TitleBuf) (input, strsim.TitleBuf) {
	switch r.kind {
	case custom:
		return input{}, buf // it reads the elements whole
	case deepEqual:
		return input{ok: true, shape: uint32(pxml.ShapeDigest(e))}, buf
	case exactLeaf, nameEquivalence:
		return input{ok: e.Tag() == r.elemTag && isLeafish(e), text: e.Text()}, buf
	case keyField:
		k := r.BlockKey(e)
		return input{ok: k != "", text: k}, buf
	}
	var in input // similarity, title: the certain field text, when not empty
	if e.Tag() == r.elemTag {
		in.text = pxml.CertainText(e, r.field)
		in.ok = in.text != ""
	}
	if r.kind == title && in.ok {
		in.title, buf = buf.Prepare(in.text)
	}
	return in, buf
}

// compare decides the pair (x, y) whose inputs are a and b.
func (r *builtin) compare(x, y *pxml.Node, a, b *input) Verdict {
	switch r.kind {
	case custom:
		return r.fn(x, y)
	case deepEqual:
		// Equal digests settle the pair without a walk, and so do unequal
		// shape digests: deep-equal elements have equal ones.
		if pxml.Hash(x) == pxml.Hash(y) || !(a.ok && b.ok && a.shape != b.shape) && pxml.DeepEqualElems(x, y) {
			return decide(MustMatch, r.name)
		}
	case exactLeaf:
		if a.ok && b.ok {
			if a.text == b.text {
				return decide(MustMatch, r.name)
			}
			return decide(CannotMatch, r.name)
		}
	case nameEquivalence:
		if a.ok && b.ok {
			if strsim.SameName(a.text, b.text) {
				return decide(MustMatch, r.name)
			}
			if strsim.NameSim(a.text, b.text) < r.threshold {
				return decide(CannotMatch, r.name)
			}
		}
	case keyField:
		if a.ok && b.ok && a.text != b.text {
			return decide(CannotMatch, r.name)
		}
	case similarity:
		if a.ok && b.ok && r.sim(a.text, b.text) < r.threshold {
			return decide(CannotMatch, r.name)
		}
	case title:
		return r.compareTitles(a, b)
	}
	return abstain()
}

func (r *builtin) compareTitles(a, b *input) Verdict {
	if a.ok && b.ok && a.title.Below(b.title, r.cut) {
		return decide(CannotMatch, r.name)
	}
	return abstain()
}

// DeepEqual is the paper's generic rule: two deep-equal elements refer to
// the same real-world object. It never decides cannot-match. Equal digests
// settle it without a walk (structurally equal subtrees are deep-equal, up
// to the digest's collision odds); unequal ones still need it, because deep
// equality ignores how certain children are grouped into trivial choice
// points and the digest does not. A Pairing prepares each element's shape
// digest (see pxml.ShapeDigest), which ignores that grouping: unequal shape
// digests settle the pair too, and only equal ones are walked.
func DeepEqual() Rule { return &builtin{kind: deepEqual, name: "deep-equal"} }

// ExactLeaf implements "no typos occur in <tag>" rules — the paper's genre
// rule. For leaf elements with the given tag it decides must-match on equal
// text and cannot-match on different text, eliminating the "same value with
// a typo" possibility. It abstains for other tags and for non-leaves.
func ExactLeaf(tag string) Rule {
	return &builtin{kind: exactLeaf, name: fmt.Sprintf("no-typos(%s)", tag), elemTag: tag}
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
	return &builtin{kind: keyField, name: fmt.Sprintf("key-field(%s/%s)", elemTag, fieldTag), elemTag: elemTag, field: fieldTag}
}

// Similarity implements "elements cannot match unless <field> is
// sufficiently similar" rules — the paper's title rule. Pairs whose field
// similarity falls below the threshold are cannot-match; otherwise the rule
// abstains. Absent or uncertain fields abstain.
func Similarity(elemTag, fieldTag string, sim func(a, b string) float64, threshold float64) Rule {
	return &builtin{kind: similarity, name: fmt.Sprintf("similarity(%s/%s<%.2g)", elemTag, fieldTag, threshold),
		elemTag: elemTag, field: fieldTag, threshold: threshold, sim: sim}
}

// NameEquivalence decides leaf name elements (e.g. directors) by naming
// convention: convention-equivalent names ("Woo, John" vs "John Woo") are
// must-match, clearly different names are cannot-match, and near-miss
// names (possible typos) remain undecided. This captures the paper's
// observation that sources "use different conventions for naming
// directors, so these never match exactly".
func NameEquivalence(tag string, typoThreshold float64) Rule {
	return &builtin{kind: nameEquivalence, name: fmt.Sprintf("name-equivalence(%s)", tag), elemTag: tag, threshold: typoThreshold}
}

// The movie-domain rule set of the paper's §V, with the thresholds used
// throughout the reproduction.

// GenreRule is the paper's "no typos occur in genres".
func GenreRule() Rule { return ExactLeaf("genre") }

// TitleThreshold is the similarity below which two movies cannot be the
// same (paper: "not sufficiently similar").
const TitleThreshold = 0.55

// TitleRule is the paper's "two movies cannot match if their titles are
// not sufficiently similar": Similarity over strsim.TitleSim at
// TitleThreshold, asked only whether a pair falls below it.
func TitleRule() Rule {
	return &builtin{kind: title, name: fmt.Sprintf("similarity(movie/title<%.2g)", TitleThreshold),
		elemTag: "movie", field: "title", cut: strsim.NewThreshold(TitleThreshold)}
}

// YearRule is the paper's "movies of different years cannot match".
func YearRule() Rule { return KeyField("movie", "year") }

// DirectorRule decides director leaves by naming convention.
func DirectorRule() Rule { return NameEquivalence("director", 0.90) }

// ParseRules maps a comma-separated list of rule names (genre, title,
// year, director) to the rules they name. "" and "none" name no rule, and
// blank entries are skipped.
func ParseRules(spec string) ([]Rule, error) {
	if spec == "" || spec == "none" {
		return nil, nil
	}
	var rules []Rule
	for _, name := range strings.Split(spec, ",") {
		switch strings.TrimSpace(name) {
		case "genre":
			rules = append(rules, GenreRule())
		case "title":
			rules = append(rules, TitleRule())
		case "year":
			rules = append(rules, YearRule())
		case "director":
			rules = append(rules, DirectorRule())
		case "":
		default:
			return nil, fmt.Errorf("unknown rule %q (known: genre, title, year, director)", name)
		}
	}
	return rules, nil
}

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
