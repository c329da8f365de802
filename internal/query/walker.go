package query

import (
	"math/rand"
	"slices"

	"repro/internal/pxml"
)

// This file holds the world walker: every read-only pass over possible
// worlds — an anchor's local worlds, a whole document's worlds, a sampled
// world — lays the world out in one reusable arena over the original nodes,
// building no pxml node, and the evaluator of certain.go reads the arena.
//
// The arena holds one slot per element occurrence of the current world, in
// pre-order: a slot's element children follow it, each followed by its own
// subtree, and end links a slot to the one after its subtree. A node that
// occurs twice in the world — a hash-consed subtree shared by two parents —
// gets two slots, and the choice points below each occurrence are picked
// independently, because a pick belongs to a position in the walk and not
// to a node.

// slot is one element occurrence of the laid-out world.
type slot struct {
	n   *pxml.Node
	end int32 // one past the last slot of the occurrence's subtree
}

// walkMode decides what happens at a choice point with several
// alternatives.
type walkMode uint8

const (
	// walkCertain lays out no alternative: only choice points with a single
	// alternative contribute, which is pxml.ElementChildren's view, and a
	// materialized world has no other kind.
	walkCertain walkMode = iota
	// walkEnum takes the alternative the odometer's digit names.
	walkEnum
	// walkSample draws the alternative from the RNG as worlds.Sample does.
	walkSample
)

// digit is one odometer position: the alternative taken at a choice point
// and how many it has.
type digit struct{ alt, n int32 }

// walker lays out worlds and evaluates queries over them. It belongs to one
// evaluation on one goroutine.
type walker struct {
	slots []slot
	mode  walkMode

	// digits are the choice points with more than one alternative, in
	// pre-order of the current world; the last turns fastest. next is the
	// digit the layout consumes at the next such choice point.
	digits []digit
	next   int
	rng    *rand.Rand

	// vals holds the distinct values the last evaluation emitted, sorted,
	// and hits how many it emitted, duplicates included.
	vals []string
	hits int
}

// certainView lays out elems as one world without choices: the view
// EvalWorld, CountWorld and StringValue evaluate.
func certainView(elems ...*pxml.Node) *walker {
	w := &walker{}
	for _, e := range elems {
		w.place(e)
	}
	return w
}

// reserve sizes the arena for any world of root's subtree: its logical
// element count, every occurrence in every alternative, bounds the elements
// of one world.
func (w *walker) reserve(root *pxml.Node) {
	if n := root.Summary().Kinds[pxml.KindElem]; int64(cap(w.slots)) < n {
		w.slots = make([]slot, 0, n)
	}
}

// eachWorld lays out every possible world of root in turn, in the order of
// worlds.Enumerate, and calls fn with its probability, multiplied in
// worlds.Enumerate's order so that every sum over worlds keeps its bits;
// fn returns false to stop. root is an element, whose occurrence is the
// world's only top-level slot, or a document's root choice point, whose
// alternatives' elements are the top-level slots.
func (w *walker) eachWorld(root *pxml.Node, fn func(p float64) bool) {
	w.mode = walkEnum
	w.digits = w.digits[:0]
	for fn(w.layout(root)) && w.advance() {
	}
}

// sample lays out one world of root drawn from rng, consuming it exactly
// as worlds.Sample does: one Float64 per choice point with more than one
// alternative, in pre-order of the drawn world.
func (w *walker) sample(root *pxml.Node, rng *rand.Rand) {
	w.mode, w.rng = walkSample, rng
	w.layout(root)
}

// layout lays out the world the mode picks from root and returns its
// probability.
func (w *walker) layout(root *pxml.Node) float64 {
	w.slots = w.slots[:0]
	w.next = 0
	if root.Kind() == pxml.KindElem {
		return w.place(root)
	}
	return w.placeProb(1, root)
}

// advance turns the odometer to the next world: the last digit that is not
// at its last alternative moves on, and the digits after it are dropped,
// since the choice points after it in pre-order are those of the new world
// and start at their first alternatives. It reports false after the last
// world.
func (w *walker) advance() bool {
	for n := len(w.digits); n > 0; n-- {
		if d := &w.digits[n-1]; d.alt+1 < d.n {
			d.alt++
			w.digits = w.digits[:n]
			return true
		}
	}
	return false
}

// place appends the occurrence of element e with the subtree of the world
// the mode picks below it, and returns the probability of that subtree: 1
// for a leaf, otherwise the product over its choice points as placeProb
// folds it.
func (w *walker) place(e *pxml.Node) float64 {
	i := len(w.slots)
	w.slots = append(w.slots, slot{n: e})
	p := 1.0
	for _, prob := range e.Children() {
		p = w.placeProb(p, prob)
	}
	w.slots[i].end = int32(len(w.slots))
	return p
}

// placeProb lays out the alternative the mode picks at choice point prob
// and folds it into the running probability p as worlds.Enumerate does:
// p times the alternative's probability, times the product of its
// elements' probabilities in order.
func (w *walker) placeProb(p float64, prob *pxml.Node) float64 {
	alts := prob.Children()
	poss := alts[0]
	if len(alts) > 1 {
		a := w.choose(alts)
		if a < 0 {
			return p
		}
		poss = alts[a]
	}
	ep := 1.0
	for _, e := range poss.Children() {
		ep *= w.place(e)
	}
	return p * poss.Prob() * ep
}

// choose picks an alternative at a choice point with more than one, or -1
// in the certain mode.
func (w *walker) choose(alts []*pxml.Node) int {
	switch w.mode {
	case walkEnum:
		if w.next == len(w.digits) {
			w.digits = append(w.digits, digit{n: int32(len(alts))})
		}
		w.next++
		return int(w.digits[w.next-1].alt)
	case walkSample:
		r := w.rng.Float64()
		acc := 0.0
		for i, a := range alts {
			acc += a.Prob()
			if r < acc {
				return i
			}
		}
		return len(alts) - 1
	default:
		return -1
	}
}

// eval runs q from every top-level slot of the laid-out world, starting in
// the given states, and collects what it emits in vals and hits.
func (w *walker) eval(q *Query, states stateSet) {
	w.vals = w.vals[:0]
	for i := int32(0); int(i) < len(w.slots); i = w.slots[i].end {
		w.evalFrom(q, i, states)
	}
	w.hits = len(w.vals)
	if len(w.vals) > 1 {
		slices.Sort(w.vals)
		w.vals = slices.Compact(w.vals)
	}
}

func (w *walker) emit(v string) { w.vals = append(w.vals, v) }

// yields reports whether the last evaluation emitted v.
func (w *walker) yields(v string) bool {
	_, ok := slices.BinarySearch(w.vals, v)
	return ok
}

// materialize builds slot i's occurrence as certain pxml nodes, node for
// node as worlds.Enumerate builds a world: a leaf is the original node, any
// other element a new one over one certain choice point holding its
// children, or none when it has no children in this world.
func (w *walker) materialize(i int32) *pxml.Node {
	n := w.slots[i].n
	if n.IsLeaf() {
		return n
	}
	if kids := w.materializeKids(i); len(kids) > 0 {
		return pxml.NewElem(n.Tag(), n.Text(), pxml.Certain(kids...))
	}
	return pxml.NewElem(n.Tag(), n.Text())
}

// materializeKids materializes the element children of slot i, in order.
func (w *walker) materializeKids(i int32) []*pxml.Node {
	var kids []*pxml.Node
	for k := i + 1; k < w.slots[i].end; k = w.slots[k].end {
		kids = append(kids, w.materialize(k))
	}
	return kids
}

// materializeWorld materializes the top-level slots: the world's elements
// as worlds.Enumerate hands them out.
func (w *walker) materializeWorld() []*pxml.Node {
	var elems []*pxml.Node
	for i := int32(0); int(i) < len(w.slots); i = w.slots[i].end {
		elems = append(elems, w.materialize(i))
	}
	return elems
}
