package query

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// ErrBudgetExhausted marks an evaluation aborted by a per-query resource
// ceiling (Options.TimeBudget or Options.MaxNodeVisits). The partially
// attached Plan carries BudgetExhausted so `explain` can surface it.
var ErrBudgetExhausted = errors.New("query: budget exhausted")

// budget threads cancellation and per-query resource ceilings through the
// evaluators. It belongs to one evaluation on one goroutine; the
// context/deadline checks are amortized to every budgetCheckInterval steps
// so the hot path costs one increment per node visit. A nil budget meters
// nothing (EvalExact, EvalEnumerate, EvalSample).
type budget struct {
	ctx       context.Context
	deadline  time.Time // zero = no wall-clock ceiling
	maxVisits int64     // 0 = no visit ceiling
	visits    int64
}

const budgetCheckInterval = 256

// newBudget builds the meter for one evaluation. ctx may be nil.
func newBudget(ctx context.Context, opts Options) *budget {
	b := &budget{ctx: ctx, maxVisits: opts.MaxNodeVisits}
	if opts.TimeBudget > 0 {
		b.deadline = time.Now().Add(opts.TimeBudget)
	}
	return b
}

// step records one unit of evaluation work — a node visit, an enumerated
// world, or a drawn sample — and reports whether the query must abort.
// The first step always runs the full check, so a context canceled before
// evaluation or an already-expired deadline aborts immediately and
// deterministically.
func (b *budget) step() error {
	if b == nil {
		return nil
	}
	b.visits++
	v := b.visits
	if b.maxVisits > 0 && v > b.maxVisits {
		return fmt.Errorf("%w: node-visit budget %d exceeded", ErrBudgetExhausted, b.maxVisits)
	}
	if v != 1 && v%budgetCheckInterval != 0 {
		return nil
	}
	if b.ctx != nil {
		if err := b.ctx.Err(); err != nil {
			return err
		}
	}
	if !b.deadline.IsZero() && time.Now().After(b.deadline) {
		return fmt.Errorf("%w: wall-clock budget exceeded", ErrBudgetExhausted)
	}
	return nil
}

// spent reports the meter reading (0 for a nil budget).
func (b *budget) spent() int64 {
	if b == nil {
		return 0
	}
	return b.visits
}
