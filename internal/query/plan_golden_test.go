package query_test

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/query"
)

// planGoldenFile holds one line per (document, query, method) case of
// planGoldenLines: the plan the engine attached to the result.
const planGoldenFile = "testdata/plan_golden.txt"

// planGoldenLines evaluates every case of the exact golden's corpus and
// renders its plan as one tab-separated line: document, query, requested
// method, then every field the planner and the executor set — method,
// reason, world count, anchor tag, anchor world bound, the pruned fraction
// as float64 bits and the empty-by-summary flag — or the error.
func planGoldenLines(t *testing.T) []string {
	var lines []string
	for ti, tree := range exactGoldenTrees(t) {
		for _, src := range exactGoldenQueries {
			q := query.MustCompile(src)
			for _, m := range []query.Method{query.MethodExact, query.MethodAuto} {
				fields := []string{fmt.Sprint(ti), src, string(m)}
				res, err := query.Eval(tree, q, query.Options{Method: m, Seed: query.SeedPtr(7)})
				switch {
				case err != nil:
					fields = append(fields, "error: "+err.Error())
				case res.Plan == nil:
					fields = append(fields, "no plan")
				default:
					pl := res.Plan
					fields = append(fields, string(pl.Method), pl.Reason, pl.EstimatedWorlds, pl.AnchorTag,
						pl.AnchorWorldBound, fmt.Sprintf("%#x", math.Float64bits(pl.PrunedFraction)), fmt.Sprint(pl.EmptyByIndex))
				}
				lines = append(lines, strings.Join(fields, "\t"))
			}
		}
	}
	return lines
}

// TestPlansMatchGolden pins the planner: over the exact golden's corpus,
// with method=exact and auto, every Plan field equals the recorded one, the
// pruned fraction to the float64 bit. The planner's inputs are the
// document's cached summary; a change in how it reads them shows here.
func TestPlansMatchGolden(t *testing.T) {
	data, err := os.ReadFile(planGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	got := planGoldenLines(t)
	if len(got) != len(want) {
		t.Fatalf("%d cases, %d recorded", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("case %d:\n got  %q\n want %q", i, got[i], want[i])
		}
	}
}
