package query

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"slices"
	"strconv"
	"sync"

	"repro/internal/pxml"
)

// Plan explains how the engine decided to evaluate a query: the chosen
// strategy, the cost estimates it was based on, and how much of the
// document the summary let the planner rule out. It is attached to every
// Result produced by Eval and surfaced by the `explain=1` query parameter.
type Plan struct {
	// Method is the strategy the planner chose (and the executor ran —
	// the engine guarantees the two agree).
	Method Method `json:"method"`
	// Reason is a human-readable account of the choice.
	Reason string `json:"reason"`
	// EstimatedWorlds is the document's possible-world count.
	EstimatedWorlds string `json:"estimated_worlds"`
	// AnchorTag is the tag of the query's anchor step ("*" for wildcard).
	AnchorTag string `json:"anchor_tag,omitempty"`
	// AnchorWorldBound is the planner's upper bound on any anchor
	// subtree's local world count (empty unless auto planned it).
	AnchorWorldBound string `json:"anchor_world_bound,omitempty"`
	// PrunedFraction estimates the fraction of document elements the
	// evaluation never has to visit (from the summary's tag occurrences).
	PrunedFraction float64 `json:"pruned_fraction"`
	// EmptyByIndex is set when the summary proved the result empty (a
	// required tag does not occur in the document) and evaluation was
	// skipped entirely.
	EmptyByIndex bool `json:"empty_by_index,omitempty"`
	// CacheHit is set by the database layer when the result was served
	// from the result cache.
	CacheHit bool `json:"cache_hit"`
	// BudgetExhausted is set when evaluation aborted on a per-query
	// budget (Options.TimeBudget / Options.MaxNodeVisits); the result
	// carrying it is partial and arrives alongside ErrBudgetExhausted.
	BudgetExhausted bool `json:"budget_exhausted,omitempty"`
}

// ExecStats reports how one evaluation actually ran: how much work the
// budget metered and how many anchors the exact executor enumerated.
// Attached to every Result produced by Eval.
type ExecStats struct {
	// NodeVisits is the budget meter reading: node visits plus enumerated
	// worlds plus drawn samples.
	NodeVisits int64
	// AnchorsEnumerated counts the anchor subtrees whose local worlds the
	// exact executor enumerated; AnchorsSkipped those it reached but did
	// not enumerate, because no element in them can carry a literal the
	// predicates require. Anchors inside a subtree the summaries pruned
	// whole are never reached and count in neither.
	AnchorsEnumerated, AnchorsSkipped int64
}

// queryTags collects the distinct concrete element tags a query mentions:
// step names plus predicate path names. Wildcards and text() contribute
// nothing. The bool reports whether a wildcard step occurs.
func queryTags(q *Query) ([]string, bool) {
	var tags []string
	wildcard := false
	var addSteps func(steps []Step)
	var addPred func(p Pred)
	addSteps = func(steps []Step) {
		for _, s := range steps {
			if s.IsText {
				continue
			}
			if s.Name == "*" {
				wildcard = true
			} else if !slices.Contains(tags, s.Name) {
				tags = append(tags, s.Name)
			}
			for _, p := range s.Preds {
				addPred(p)
			}
		}
	}
	addPred = func(p Pred) {
		switch p := p.(type) {
		case PredExists:
			addSteps(p.Path.Steps)
		case PredAnd:
			addPred(p.A)
			addPred(p.B)
		case PredOr:
			addPred(p.A)
			addPred(p.B)
		case PredNot:
			addPred(p.P)
		}
	}
	addSteps(q.Steps)
	return tags, wildcard
}

// requiredStepTags returns the concrete tags of the main step chain only —
// each must occur in the document for the query to have any answer.
func requiredStepTags(q *Query) []string {
	var out []string
	for _, s := range q.Steps {
		if !s.IsText && s.Name != "*" {
			out = append(out, s.Name)
		}
	}
	return out
}

// worldsTexts holds the decimal world counts of recently planned
// documents, keyed by their root summary's count (a shared, read-only
// *big.Int): every plan reports the count, and it can run to thousands of
// digits, so a document's is formatted once, not once per query. It
// caches a pure function of its key, so callers sharing it cannot see
// each other.
var worldsTexts = struct {
	sync.Mutex
	lru lru[*big.Int, string]
}{lru: newLRU[*big.Int, string](64)}

// worldsString returns the summarized document's world count in decimal.
func worldsString(sum *pxml.Summary) string {
	worldsTexts.Lock()
	s, ok := worldsTexts.lru.get(sum.Worlds)
	worldsTexts.Unlock()
	if !ok {
		s = sum.Worlds.String()
		worldsTexts.Lock()
		worldsTexts.lru.put(sum.Worlds, s)
		worldsTexts.Unlock()
	}
	return s
}

// planAuto builds the cost-based plan for MethodAuto from the document's
// summary: exact when every anchor subtree spans at most LocalWorldLimit
// local worlds, Monte-Carlo sampling otherwise. The choice is a
// prediction, not a trial run: the anchor world bound is a true upper
// bound (max subtree world count over all elements of the anchor tag), so
// a predicted exact evaluation cannot fail its local-enumeration budget at
// runtime.
func planAuto(q *Query, opts Options, sum *pxml.Summary) Plan {
	anchorTag := q.Steps[anchorIndex(q)].Name
	pl := Plan{
		Method:          MethodExact,
		EstimatedWorlds: worldsString(sum),
		AnchorTag:       anchorTag,
	}
	localLimit := opts.LocalWorldLimit
	if localLimit <= 0 {
		localLimit = DefaultLocalWorldLimit
	}

	// Summary-proven empty result: a concrete step tag absent from the
	// document means no possible world can produce an answer.
	for _, tag := range requiredStepTags(q) {
		if !sum.Tags.Has(tag) {
			pl.EmptyByIndex = true
			pl.PrunedFraction = 1
			pl.Reason = "index: tag " + strconv.Quote(tag) + " does not occur in the document; result is empty"
			return pl
		}
	}

	pl.PrunedFraction = estimatePruned(q, sum.Tags)

	var bound *big.Int
	if anchorTag == "*" {
		// Any element may anchor: the largest subtree of any tag bounds it.
		bound = big.NewInt(1)
		for _, st := range sum.Tags.Stats() {
			if st.MaxWorlds.Cmp(bound) > 0 {
				bound = st.MaxWorlds
			}
		}
	} else if st, ok := sum.Tags.Stat(anchorTag); ok {
		bound = st.MaxWorlds
	}
	if bound != nil {
		pl.AnchorWorldBound = bound.String()
		if bound.IsInt64() && bound.Int64() <= int64(localLimit) {
			pl.Reason = "anchor <" + anchorTag + "> subtrees span at most " + pl.AnchorWorldBound +
				" local worlds (limit " + strconv.Itoa(localLimit) + "): exact"
			return pl
		}
	}
	pl.Method = MethodSample
	pl.Reason = "anchor <" + anchorTag + "> subtrees may span " + pl.AnchorWorldBound +
		" local worlds (limit " + strconv.Itoa(localLimit) + "): Monte-Carlo sampling"
	return pl
}

// estimatePruned estimates, from the summary's tag occurrences, the
// fraction of document elements evaluation can skip: elements whose tag
// the query never mentions are only ever traversed, not matched, and the
// summary-pruned executor skips whole subtrees without any matching tag
// below. Wildcard queries prune nothing.
func estimatePruned(q *Query, tags pxml.TagSet) float64 {
	names, wildcard := queryTags(q)
	if wildcard {
		return 0
	}
	elements := 0
	for _, st := range tags.Stats() {
		elements += int(st.Count)
	}
	if elements == 0 {
		return 0
	}
	relevant := 0
	for _, name := range names {
		if st, ok := tags.Stat(name); ok {
			relevant += int(st.Count)
		}
	}
	f := 1 - float64(relevant)/float64(elements)
	if f < 0 {
		return 0
	}
	return f
}

// Eval is the query engine: it chooses an evaluation strategy from the
// tree's own cached summary, executes exactly the chosen method, and
// attaches the explainable Plan to the result. Auto evaluation is
// deterministic: it returns bit-identical answers to explicitly requesting
// the method the plan names.
func Eval(t *pxml.Tree, q *Query, opts Options) (Result, error) {
	return EvalCtx(context.Background(), t, q, opts)
}

// EvalIndexed is Eval; the summary argument is ignored, because the
// planner reads the summary of the tree it evaluates. Kept for
// benchmark/trace.go; goes with it (ROADMAP item 3).
func EvalIndexed(t *pxml.Tree, q *Query, opts Options, _ *pxml.Summary) (Result, error) {
	return Eval(t, q, opts)
}

// EvalCtx is Eval with cancellation and budgets: evaluation aborts with
// ctx.Err() when the context is canceled (checked on an amortized schedule
// inside the executors' hot loops) and with ErrBudgetExhausted when
// Options.TimeBudget or Options.MaxNodeVisits runs out. On a budget abort
// the returned Result still carries the Plan, with BudgetExhausted set, so
// `explain` can show what was attempted. Evaluation runs on the calling
// goroutine.
func EvalCtx(ctx context.Context, t *pxml.Tree, q *Query, opts Options) (Result, error) {
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	sum := t.Summary()
	b := newBudget(ctx, opts)

	if m := opts.method(); m != MethodAuto {
		pl := Plan{
			Method:          m,
			Reason:          "method " + strconv.Quote(string(m)) + " requested explicitly",
			EstimatedWorlds: worldsString(sum),
			PrunedFraction:  estimatePruned(q, sum.Tags),
		}
		return executePlanned(t, q, opts, pl, b)
	}

	pl := planAuto(q, opts, sum)
	if pl.EmptyByIndex {
		return newResult(make([]Answer, 0), pl.Method, 0, &pl), nil
	}
	return executePlanned(t, q, opts, pl, b)
}

// failedResult wraps an executor error: budget aborts keep the Plan (with
// BudgetExhausted set) attached to the empty result so front ends can
// still explain what happened; other errors return a bare Result.
func failedResult(pl Plan, err error) (Result, error) {
	if errors.Is(err, ErrBudgetExhausted) {
		pl.BudgetExhausted = true
		return newResult(nil, pl.Method, 0, &pl), err
	}
	return Result{}, err
}

// result wraps the exact executor's answers with the plan — its estimate
// refined by what the executor saw — and the execution counters.
func (e *exactEval) result(answers []Answer, pl Plan) Result {
	if e.visited > 0 {
		b := append(make([]byte, 0, 192), pl.Reason...)
		b = append(b, " (pruned "...)
		b = strconv.AppendInt(b, int64(e.prunedSubtrees), 10)
		b = append(b, " of "...)
		b = strconv.AppendInt(b, int64(e.visited), 10)
		b = append(b, " subtree visits, enumerated "...)
		b = strconv.AppendInt(b, e.anchorsEnumerated, 10)
		b = append(b, " of "...)
		b = strconv.AppendInt(b, e.anchorsEnumerated+e.anchorsSkipped, 10)
		b = append(b, " anchors reached)"...)
		pl.Reason = string(b)
	}
	res := newResult(answers, MethodExact, 0, &pl)
	res.Exec = ExecStats{
		NodeVisits:        e.budget.spent(),
		AnchorsEnumerated: e.anchorsEnumerated, AnchorsSkipped: e.anchorsSkipped,
	}
	return res
}

// meteredResult wraps an enumerated or sampled answer set with the plan
// and the budget meter reading.
func meteredResult(answers []Answer, m Method, sampled int, pl Plan, b *budget) Result {
	res := newResult(answers, m, sampled, &pl)
	res.Exec = ExecStats{NodeVisits: b.spent()}
	return res
}

// executePlanned runs exactly the method the plan names.
func executePlanned(t *pxml.Tree, q *Query, opts Options, pl Plan, b *budget) (Result, error) {
	switch pl.Method {
	case MethodExact:
		answers, e, err := evalExactPlanned(t, q, opts.LocalWorldLimit, b)
		if err != nil {
			return failedResult(pl, err)
		}
		return e.result(answers, pl), nil
	case MethodEnumerate:
		answers, err := evalEnumerate(t, q, opts.enumLimit(), b)
		if err != nil {
			return failedResult(pl, err)
		}
		return meteredResult(answers, pl.Method, 0, pl, b), nil
	case MethodSample:
		answers, err := evalSample(t, q, opts.samples(), opts.seed(), b)
		if err != nil {
			return failedResult(pl, err)
		}
		return meteredResult(answers, pl.Method, opts.samples(), pl, b), nil
	default:
		return Result{}, fmt.Errorf("%w: unknown method %q", ErrBadOptions, pl.Method)
	}
}
