package query

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/pxml"
	"repro/internal/pxmltest"
	"repro/internal/worlds"
)

// conditionUngated is ConditionAbsent without the gate: it prunes no
// subtree and enumerates every anchor it reaches.
func conditionUngated(tree *pxml.Tree, q *Query, value string) (*pxml.Tree, float64, error) {
	ev, err := newExactEval(q, 0)
	if err != nil {
		return nil, 0, err
	}
	ev.need = nil
	return ev.conditionAbsent(tree, value)
}

// worldDistribution maps every possible world of t, printed, to its
// probability.
func worldDistribution(t *pxml.Tree) map[string]float64 {
	d := map[string]float64{}
	worlds.Enumerate(t, func(w worlds.World) bool {
		d[w.Tree().String()] += w.P
		return true
	})
	return d
}

// TestConditionGatedEqualsUngated: on random documents, rejecting every
// value a query yields, and values that occur nowhere, builds the same
// world distribution with the same prior whether the conditioner prunes
// with the executor's summary tests and the rejected value or walks every
// subtree. A value that occurs nowhere leaves the document as it is, with
// a prior of exactly 1.
func TestConditionGatedEqualsUngated(t *testing.T) {
	queries := []string{
		`//a`,
		`//movie/title`,
		`//movie[title]/title`,
		`//a//b`,
		`//c[a="x"]/b`,
		`//movie[title="John"]/a`,
		`//movie/title/text()`,
		`//*/text()`,
	}
	nowhere := []string{"nowhere", "no where"}
	rng := rand.New(rand.NewSource(41))
	cfg := pxmltest.DefaultGenConfig()
	var compared, kept int
	for i := 0; i < 300; i++ {
		tr := pxmltest.RandomTree(rng, cfg)
		if wc := tr.WorldCount(); !wc.IsInt64() || wc.Int64() > 500 {
			continue
		}
		for _, src := range queries {
			q := MustCompile(src)
			var values []string
			w := &walker{}
			w.eachWorld(tr.Root(), func(float64) bool {
				w.eval(q, stateSet(1))
				values = append(values, w.vals...)
				return true
			})
			slices.Sort(values)
			values = append(slices.Compact(values), nowhere...)
			for _, v := range values {
				got, gotP, gotErr := ConditionAbsent(tr, q, v, 0)
				ref, refP, refErr := conditionUngated(tr, q, v)
				if (gotErr == nil) != (refErr == nil) || errors.Is(gotErr, ErrContradiction) != errors.Is(refErr, ErrContradiction) {
					t.Fatalf("doc %d %s: rejecting %q: gated error %v, ungated %v", i, src, v, gotErr, refErr)
				}
				if gotErr != nil {
					continue
				}
				if slices.Contains(nowhere, v) {
					if got != tr || gotP != 1 {
						t.Fatalf("doc %d %s: rejecting %q, which occurs nowhere: prior %v, document kept %v", i, src, v, gotP, got == tr)
					}
					kept++
				}
				if math.Abs(gotP-refP) > 1e-12 {
					t.Fatalf("doc %d %s: rejecting %q: gated prior %v, ungated %v", i, src, v, gotP, refP)
				}
				for _, nt := range []*pxml.Tree{got, ref} {
					if err := nt.Validate(); err != nil {
						t.Fatalf("doc %d %s: rejecting %q: %v\n%s", i, src, v, err, nt)
					}
				}
				gd, rd := worldDistribution(got), worldDistribution(ref)
				for k, p := range rd {
					if math.Abs(gd[k]-p) > 1e-12 {
						t.Fatalf("doc %d %s: rejecting %q: world %s has %v gated, %v ungated", i, src, v, k, gd[k], p)
					}
				}
				for k, p := range gd {
					if _, ok := rd[k]; !ok && p > 1e-12 {
						t.Fatalf("doc %d %s: rejecting %q: world %s has %v gated, none ungated", i, src, v, k, p)
					}
				}
				compared++
			}
		}
	}
	if compared-kept < 500 || kept < 500 {
		t.Fatalf("corpus too thin: %d rejections compared, %d of them of values that occur nowhere", compared, kept)
	}
	t.Logf("%d rejections compared, %d of them of values that occur nowhere", compared, kept)
}
