//go:build !race

// The race detector's sync.Pool drops a share of what is put back, so these
// counts hold in a plain build only.

package oracle_test

import (
	"fmt"
	"testing"

	"repro/internal/oracle"
	"repro/internal/pxml"
)

// movies returns n movies with distinct titles, every fifth without a year.
func movies(n int) []*pxml.Node {
	out := make([]*pxml.Node, n)
	for i := range out {
		kids := []*pxml.Node{pxml.NewLeaf("title", fmt.Sprintf("The Movie Number %d: Part %c", i, 'A'+i%26))}
		if i%5 != 0 {
			kids = append(kids, pxml.NewLeaf("year", fmt.Sprint(1950+i%40)))
		}
		kids = append(kids, pxml.NewLeaf("genre", "Drama"))
		out[i] = pxml.NewElem("movie", "", pxml.Certain(kids...))
	}
	return out
}

// TestPairingAllocsDoNotScale: a Pairing keeps its inputs in storage it
// reuses, so pairing 600 movies with 30 and deciding every pair the join
// enumerates allocates hardly more than pairing 60 with 30 — the blocking
// keys, and whatever storage has to grow. And once a Pairing has retained
// them, a second Pair over the same lists derives nothing of any element.
func TestPairingAllocsDoNotScale(t *testing.T) {
	o := oracle.MovieOracle(oracle.SetGenreTitleYear)
	bs := movies(30)
	decideAll := func(p *oracle.Pairing, na int) {
		for i := 0; i < na; i++ {
			for _, j := range p.Candidates(i) {
				if _, err := p.Decide(i, j); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	allocs := func(as []*pxml.Node) float64 {
		return testing.AllocsPerRun(20, func() {
			p := o.Pair(as, bs)
			decideAll(p, len(as))
			p.Release()
		})
	}
	small, large := allocs(movies(60)), allocs(movies(600))
	if large > small+8 {
		t.Fatalf("pairing 600 movies with 30 allocates %v times, 60 with 30 %v times", large, small)
	}

	as := movies(600)
	p := o.Pair(as, bs)
	decideAll(p, len(as))
	if keys, inputs := p.Derived(); keys != len(as)+len(bs) || inputs == 0 {
		t.Fatalf("a first Pair derived the keys of %d elements and the inputs of %d", keys, inputs)
	}
	p.Retain(func(int) bool { return true })
	p.Release()
	p = o.Pair(as, bs)
	decideAll(p, len(as))
	if keys, inputs := p.Derived(); keys != 0 || inputs != 0 {
		t.Fatalf("a second Pair derived the keys of %d elements and the inputs of %d", keys, inputs)
	}
	p.Release()
}

// TestWarmDecideDoesNotAllocate: Oracle.Decide on two movies — the path a
// rule's Apply takes — prepares both on the stack.
func TestWarmDecideDoesNotAllocate(t *testing.T) {
	ms := movies(3)
	for _, o := range []*oracle.Oracle{oracle.MovieOracle(oracle.SetFull), oracle.New(oracle.SetGenreTitleYear.Rules())} {
		for _, pair := range [][2]*pxml.Node{{ms[1], ms[2]}, {ms[0], ms[1]}, {ms[1], ms[1]}} {
			if n := testing.AllocsPerRun(100, func() { _, _ = o.Decide(pair[0], pair[1]) }); n != 0 {
				t.Errorf("Decide allocates %v times per pair", n)
			}
		}
	}
}
