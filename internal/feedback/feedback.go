// Package feedback implements the user-feedback loop of the IMPrECISE
// information cycle (paper Figure 1 and §VII): users judge ranked query
// answers, the judgments are traced back to possible worlds, and data
// belonging to impossible worlds is removed from the database —
// "incrementally improving the integration result". The demo paper lists
// this mechanism as not yet implemented; this package builds it on the
// conditioning machinery of the query processor.
package feedback

import (
	"fmt"
	"math/big"
	"time"

	"repro/internal/pxml"
	"repro/internal/query"
)

// Judgment is a user's verdict on one query answer.
type Judgment int

const (
	// Correct confirms the answer: some world must produce it.
	Correct Judgment = iota
	// Incorrect rejects the answer: no world may produce it.
	Incorrect
)

// String names the judgment.
func (j Judgment) String() string {
	if j == Correct {
		return "correct"
	}
	return "incorrect"
}

// Event records one processed feedback item.
type Event struct {
	Query    string
	Value    string
	Judgment Judgment
	// PriorP is the probability the event had before conditioning; low
	// prior-probability feedback removes a lot of uncertainty.
	PriorP float64
	// WorldsBefore and WorldsAfter measure the reduction.
	WorldsBefore, WorldsAfter *big.Int
	When                      time.Time
}

// Options bound the conditioning work.
type Options struct {
	// LocalWorldLimit bounds anchor-subtree enumeration for rejections.
	LocalWorldLimit int
	// Now supplies timestamps (for tests); nil means time.Now.
	Now func() time.Time
}

// Session applies feedback events to a probabilistic database, keeping a
// history. Sessions are not safe for concurrent use.
type Session struct {
	tree    *pxml.Tree
	opts    Options
	history []Event
}

// NewSession starts a feedback session over a document.
func NewSession(t *pxml.Tree, opts Options) *Session {
	return &Session{tree: t, opts: opts}
}

// Tree returns the current (conditioned) document.
func (s *Session) Tree() *pxml.Tree { return s.tree }

// History returns the processed events.
func (s *Session) History() []Event { return s.history }

// Apply processes one judgment on a query answer and updates the
// document. Rejections use exact factorized conditioning; confirmations
// require world enumeration within query.ConditionPresent's default limit.
func (s *Session) Apply(q *query.Query, value string, j Judgment) (Event, error) {
	return s.ApplyAt(q, value, j, time.Time{})
}

// ApplyAt is Apply with an explicit event timestamp (the zero time means
// Options.Now / time.Now). Write-ahead-log replay uses it to reproduce a
// recorded event bit for bit, timestamp included.
func (s *Session) ApplyAt(q *query.Query, value string, j Judgment, when time.Time) (Event, error) {
	before := s.tree.WorldCount()
	var (
		nt  *pxml.Tree
		p   float64
		err error
	)
	switch j {
	case Incorrect:
		nt, p, err = query.ConditionAbsent(s.tree, q, value, s.opts.LocalWorldLimit)
	case Correct:
		nt, p, err = query.ConditionPresent(s.tree, q, value, 0)
	default:
		return Event{}, fmt.Errorf("feedback: unknown judgment %d", j)
	}
	if err != nil {
		return Event{}, fmt.Errorf("feedback: %s %q on %s: %w", j, value, q, err)
	}
	if when.IsZero() {
		now := time.Now
		if s.opts.Now != nil {
			now = s.opts.Now
		}
		when = now()
	}
	ev := Event{
		Query:        q.String(),
		Value:        value,
		Judgment:     j,
		PriorP:       p,
		WorldsBefore: before,
		WorldsAfter:  nt.WorldCount(),
		When:         when,
	}
	s.tree = nt
	s.history = append(s.history, ev)
	return ev, nil
}

// UncertaintyReduction summarizes the session: the factor by which the
// world count shrank since the session started. It returns 1 for an empty
// history.
func (s *Session) UncertaintyReduction() *big.Float {
	if len(s.history) == 0 {
		return big.NewFloat(1)
	}
	first := new(big.Float).SetInt(s.history[0].WorldsBefore)
	last := new(big.Float).SetInt(s.history[len(s.history)-1].WorldsAfter)
	if last.Sign() == 0 {
		return big.NewFloat(0)
	}
	return new(big.Float).Quo(first, last)
}
