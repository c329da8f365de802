package pxml

import (
	"cmp"
	"fmt"
	"slices"
)

// Normalize returns an equivalent document in canonical form:
//
//   - duplicate alternatives of a choice point (structurally equal
//     possibility contents) are merged, their probabilities added;
//   - alternatives with probability below ProbEpsilon are dropped;
//   - surviving probabilities are rescaled to sum to exactly 1;
//   - alternatives are ordered by descending probability, ties broken by
//     structural hash, for deterministic output;
//   - trivial nested structure is preserved (the layered form is already
//     canonical for certain data).
//
// Normalization is applied bottom-up, and every node remembers its normal
// form, so shared subtrees are normalized once — in this call or any
// earlier one — and sharing is preserved.
func (t *Tree) Normalize() (*Tree, error) {
	root, err := normalizeNode(t.root)
	if err != nil {
		return nil, err
	}
	if root == t.root {
		return t, nil
	}
	return NewTree(root)
}

// MustNormalize is Normalize that panics on error (which only occurs on
// documents that are already invalid, e.g. all alternatives pruned).
func (t *Tree) MustNormalize() *Tree {
	nt, err := t.Normalize()
	if err != nil {
		panic(err)
	}
	return nt
}

func normalizeNode(n *Node) (*Node, error) {
	// Normalization is deterministic over immutable nodes, so a normal form
	// once computed cannot differ now.
	if c := n.canon.Load(); c != nil {
		return c, nil
	}
	var out *Node
	switch n.kind {
	case KindElem:
		kids, changed, err := normalizeKids(n.kids)
		if err != nil {
			return nil, err
		}
		if !changed {
			out = n
		} else {
			out = NewElem(n.tag, n.text, kids...)
		}
	case KindPoss:
		kids, changed, err := normalizeKids(n.kids)
		if err != nil {
			return nil, err
		}
		if !changed {
			out = n
		} else {
			out = NewPoss(n.prob, kids...)
		}
	case KindProb:
		var err error
		out, err = normalizeProb(n)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("pxml: normalize: unknown kind %d", n.kind)
	}
	n.canon.Store(out)
	return out, nil
}

func normalizeKids(kids []*Node) ([]*Node, bool, error) {
	changed := false
	out := kids
	for i, k := range kids {
		nk, err := normalizeNode(k)
		if err != nil {
			return nil, false, err
		}
		if nk != k && !changed {
			changed = true
			out = make([]*Node, len(kids))
			copy(out, kids[:i])
		}
		if changed {
			out[i] = nk
		}
	}
	return out, changed, nil
}

func normalizeProb(n *Node) (*Node, error) {
	type alt struct {
		poss *Node
		hash uint64
		prob float64
	}
	// A choice point rarely has more than a handful of alternatives: keep
	// them on the stack, so a canonical one allocates nothing.
	var buf [8]alt
	alts := buf[:0]
	for _, p := range n.kids {
		np, err := normalizeNode(p)
		if err != nil {
			return nil, err
		}
		if np.prob < ProbEpsilon {
			continue
		}
		h := contentHash(np)
		merged := false
		for i := range alts {
			if alts[i].hash == h && sameContent(alts[i].poss, np) {
				alts[i].prob += np.prob
				merged = true
				break
			}
		}
		if !merged {
			alts = append(alts, alt{poss: np, hash: h, prob: np.prob})
		}
	}
	if len(alts) == 0 {
		return nil, fmt.Errorf("pxml: normalize: choice point with no alternative above epsilon")
	}
	sum := 0.0
	for _, a := range alts {
		sum += a.prob
	}
	slices.SortStableFunc(alts, func(a, b alt) int {
		if a.prob != b.prob {
			if a.prob > b.prob {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.hash, b.hash)
	})
	prob := func(a alt) float64 {
		if len(alts) == 1 {
			return 1
		}
		return a.prob / sum
	}
	// Reuse the original node if nothing changed.
	same := len(alts) == len(n.kids)
	for i := 0; same && i < len(alts); i++ {
		same = alts[i].poss == n.kids[i] && samePoss(alts[i].poss, prob(alts[i]))
	}
	if same {
		return n, nil
	}
	poss := make([]*Node, len(alts))
	for i, a := range alts {
		if p := prob(a); samePoss(a.poss, p) {
			poss[i] = a.poss
		} else {
			poss[i] = NewPoss(p, a.poss.kids...)
		}
	}
	return NewProb(poss...), nil
}

func samePoss(p *Node, prob float64) bool {
	d := p.prob - prob
	return d < ProbEpsilon && d > -ProbEpsilon
}

// contentHash hashes a possibility node's contents, ignoring its own
// probability, so alternatives with equal contents can be merged.
func contentHash(poss *Node) uint64 {
	h := uint64(1469598103934665603) // FNV offset basis
	for _, k := range poss.kids {
		h ^= k.digest
		h *= fnvPrime
	}
	return h
}

// sameContent compares two possibility nodes' contents, ignoring their own
// probabilities.
func sameContent(a, b *Node) bool {
	if len(a.kids) != len(b.kids) {
		return false
	}
	for i := range a.kids {
		if !Equal(a.kids[i], b.kids[i]) {
			return false
		}
	}
	return true
}
