package query_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/query"
)

// TestQueryContextCanceled: a context canceled before evaluation aborts
// immediately with ctx.Err() — the first budget step always checks.
func TestQueryContextCanceled(t *testing.T) {
	tree := propertyTrees(t)[0]
	q := query.MustCompile(`//movie/title`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := query.EvalCtx(ctx, tree, q, query.Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestQueryVisitBudget: a tiny node-visit budget aborts with
// ErrBudgetExhausted, and the result still carries the plan with
// BudgetExhausted set so explain can show what was attempted.
func TestQueryVisitBudget(t *testing.T) {
	tree := propertyTrees(t)[0]
	q := query.MustCompile(`//movie/title`)
	res, err := query.EvalCtx(context.Background(), tree, q, query.Options{MaxNodeVisits: 3})
	if !errors.Is(err, query.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if res.Plan == nil || !res.Plan.BudgetExhausted {
		t.Fatalf("plan = %+v, want BudgetExhausted", res.Plan)
	}
}

// TestQueryTimeBudget: an already-expired wall-clock budget aborts on the
// first metered step.
func TestQueryTimeBudget(t *testing.T) {
	tree := propertyTrees(t)[0]
	q := query.MustCompile(`//movie/title`)
	_, err := query.EvalCtx(context.Background(), tree, q, query.Options{TimeBudget: 1})
	if !errors.Is(err, query.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
}

// TestQueryWorkersValidation: a negative worker count is an options error,
// like every other negative knob, even though the count is ignored.
func TestQueryWorkersValidation(t *testing.T) {
	for _, opts := range []query.Options{
		{Workers: -1},
		{TimeBudget: -1},
		{MaxNodeVisits: -1},
	} {
		if err := opts.Validate(); !errors.Is(err, query.ErrBadOptions) {
			t.Fatalf("Validate(%+v) = %v, want ErrBadOptions", opts, err)
		}
	}
}
