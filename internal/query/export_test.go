package query

import (
	"math/rand"

	"repro/internal/pxml"
)

// WalkWorldValues calls fn for every possible world of root, an element or
// a document's root choice point, in the walker's order, with the distinct
// values q yields on the world (sorted) and the world's probability.
func WalkWorldValues(q *Query, root *pxml.Node, fn func(vals []string, p float64)) {
	w := &walker{}
	w.eachWorld(root, func(p float64) bool {
		w.eval(q, stateSet(1))
		fn(w.vals, p)
		return true
	})
}

// SampleWorldValues draws one world of t from rng as the sample method does
// and returns the distinct values q yields on it, sorted.
func SampleWorldValues(q *Query, t *pxml.Tree, rng *rand.Rand) []string {
	w := &walker{}
	w.sample(t.Root(), rng)
	w.eval(q, stateSet(1))
	return w.vals
}
