package query_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/query"
)

// sampleGolden pins sampled answers bit for bit: each answer is its value
// and the float64 bits of its estimate, in rank order. The (n, seed) pairs
// cover one chunk plus a partial one (600), many full chunks (5000) and a
// partial last chunk after three full ones (1537), so any change to the
// chunk layout, the per-chunk seeding or the merge order shows here.
var sampleGolden = []struct {
	tree int
	src  string
	n    int
	seed int64
	want []string
}{
	{0, "//title/text()", 600, 7, []string{"Midnight Orchard 0x3ff000000000001c", "Scarlet Orchard 0x3ff000000000001c", "Velvet Orchard 0x3ff000000000001c", "Silent River 0x3fefd70a3d70a40e", "Golden River 0x3fefd70a3d70a40d", "Broken River 0x3fed55555555557e"}},
	{0, "//title/text()", 5000, 99, []string{"Midnight Orchard 0x3ff0000000000026", "Scarlet Orchard 0x3ff0000000000026", "Velvet Orchard 0x3ff0000000000026", "Silent River 0x3fefe28240b7807a", "Golden River 0x3fefd70a3d70a41f", "Broken River 0x3fed8c7e28240bad"}},
	{0, "//title/text()", 1537, 0, []string{"Midnight Orchard 0x3ff0000000000002", "Scarlet Orchard 0x3ff0000000000002", "Velvet Orchard 0x3ff0000000000002", "Golden River 0x3fefe559c65ef032", "Silent River 0x3fefd55c7097e6b4", "Broken River 0x3fed6b18d13277ac"}},
	{0, "//*[title]/year", 600, 7, []string{"1950 0x3ff000000000001c", "1957 0x3ff000000000001c", "1964 0x3ff000000000001c"}},
	{0, "//*[title]/year", 5000, 99, []string{"1950 0x3ff0000000000026", "1957 0x3ff0000000000026", "1964 0x3ff0000000000026"}},
	{0, "//*[title]/year", 1537, 0, []string{"1950 0x3ff0000000000002", "1957 0x3ff0000000000002", "1964 0x3ff0000000000002"}},
	{0, "//a/b", 600, 7, []string{}},
	{0, "//a/b", 5000, 99, []string{}},
	{0, "//a/b", 1537, 0, []string{}},
	{7, "//title/text()", 600, 7, []string{"John 0x3fc851eb851eb856", "1111 0x3fbeb851eb851eb0"}},
	{7, "//title/text()", 5000, 99, []string{"John 0x3fc95e9e1b0899ff", "1111 0x3fb923a29c779a6b"}},
	{7, "//title/text()", 1537, 0, []string{"John 0x3fc8d1327796bc2a", "1111 0x3fb77c15fc55f1a6"}},
	{7, "//*[title]/year", 600, 7, []string{}},
	{7, "//*[title]/year", 5000, 99, []string{}},
	{7, "//*[title]/year", 1537, 0, []string{}},
	{7, "//a/b", 600, 7, []string{"1111 x 0x3fdc962fc962fc87", "John 0x3fdbd70a3d70a3cb", "John John y 0x3fd2740da740da7f", "1111 0x3fc8f5c28f5c28f8", "1111 y x 0x3fc06d3a06d3a068", "1111 1111 0x3fb258bf258bf255", "1111 1111 John 0x3f9b4e81b4e81b4f", "1111 1111 1111 y 0x3f962fc962fc9630"}},
	{7, "//a/b", 5000, 99, []string{"John 0x3fde1b089a027506", "1111 x 0x3fdcd013a92a3037", "John John y 0x3fd058793dd97f5b", "1111 0x3fc6e2eb1c432ca6", "1111 y x 0x3fc113404ea4a8c4", "1111 1111 0x3fad63886594af4c", "1111 1111 John 0x3f9a027525460aaa", "1111 1111 1111 y 0x3f8f8a0902de00d3"}},
	{7, "//a/b", 1537, 0, []string{"John 0x3fde859467441f64", "1111 x 0x3fdb7b6b6e18514b", "John John y 0x3fd047f401ffaab0", "1111 0x3fc567197bc0b52d", "1111 y x 0x3fc1d25cf08294e0", "1111 1111 0x3fad5072979167c2", "1111 1111 John 0x3f96a6e42f4d7318", "1111 1111 1111 y 0x3f89511d25cf082a"}},
}

// TestSampleAnswersMatchGolden: EvalSample and the planned engine's sample
// method return the recorded answers, so `seed=` reproduces the same
// estimates across releases, not only across runs of one build.
func TestSampleAnswersMatchGolden(t *testing.T) {
	trees := propertyTrees(t)
	bits := func(answers []query.Answer) []string {
		out := make([]string, len(answers))
		for i, a := range answers {
			out[i] = fmt.Sprintf("%s %#x", a.Value, math.Float64bits(a.P))
		}
		return out
	}
	for _, g := range sampleGolden {
		tree := trees[g.tree]
		q := query.MustCompile(g.src)
		if got := bits(query.EvalSample(tree, q, g.n, g.seed)); !reflect.DeepEqual(got, g.want) {
			t.Errorf("EvalSample tree %d %s n=%d seed=%d:\n got  %q\n want %q", g.tree, g.src, g.n, g.seed, got, g.want)
		}
		res, err := query.Eval(tree, q, query.Options{
			Method: query.MethodSample, Samples: g.n, Seed: query.SeedPtr(g.seed),
		})
		if err != nil {
			t.Fatalf("Eval tree %d %s: %v", g.tree, g.src, err)
		}
		if got := bits(res.Answers); !reflect.DeepEqual(got, g.want) {
			t.Errorf("Eval(sample) tree %d %s n=%d seed=%d:\n got  %q\n want %q", g.tree, g.src, g.n, g.seed, got, g.want)
		}
	}
}
