package strsim_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/strsim"
)

// belowThresholds are the thresholds every TitleBelow property is checked
// at: the title rule's own 0.55, its neighbours, and the ends where every
// pair or none is below.
var belowThresholds = []float64{0, 0.3, 0.5, 0.55, 0.6, 0.75, 0.9, 1, 1.1}

// cutTables holds each of belowThresholds with its cut table.
var cutTables = func() map[float64]strsim.Threshold {
	m := map[float64]strsim.Threshold{}
	for _, th := range belowThresholds {
		m[th] = strsim.NewThreshold(th)
	}
	return m
}()

var (
	titleWords = []string{"jaws", "alien", "aliens", "the", "thing", "mission", "impossible", "die", "hard",
		"with", "a", "vengeance", "ii", "2", "3", "heat", "solaris", "été", "indien", "über", "ǆungla", "漢字", "İstanbul", "l"}
	titlePunct   = []string{" ", "  ", ": ", ", ", "-", "!", "'", " & ", "...", "\t"}
	titleLetters = []rune("abcdefghijklmnopqrstuvwxyz0123456789éüß漢")
)

// randomTitle joins 0–7 words (12–17 now and then, for titles past the
// 64-rune stack buffers) with random punctuation and random case.
func randomTitle(rng *rand.Rand) string {
	n := rng.Intn(8)
	switch rng.Intn(40) {
	case 0:
		n = 12 + rng.Intn(6)
	case 1, 2:
		return strings.Repeat(titlePunct[rng.Intn(len(titlePunct))], rng.Intn(4)) // empty or all punctuation
	}
	var b strings.Builder
	for i := 0; i < n; i++ {
		w := titleWords[rng.Intn(len(titleWords))]
		if rng.Intn(3) == 0 {
			w = strings.ToUpper(w)
		}
		b.WriteString(w)
		b.WriteString(titlePunct[rng.Intn(len(titlePunct))])
	}
	return b.String()
}

// typos applies k random single-rune edits.
func typos(rng *rand.Rand, s string, k int) string {
	r := []rune(s)
	for ; k > 0; k-- {
		c := titleLetters[rng.Intn(len(titleLetters))]
		i := rng.Intn(len(r) + 1)
		switch op := rng.Intn(4); {
		case op == 0 || len(r) == 0 || i == len(r):
			r = append(r[:i], append([]rune{c}, r[i:]...)...)
		case op == 1:
			r = append(r[:i], r[i+1:]...)
		case op == 2:
			r[i] = c
		default:
			j := rng.Intn(len(r))
			r[i], r[j] = r[j], r[i]
		}
	}
	return string(r)
}

// variant returns a title related to s in one of the ways sources differ:
// unrelated, misspelt, reordered, re-punctuated (equal after
// normalisation), or extended.
func variant(rng *rand.Rand, s string) string {
	switch rng.Intn(6) {
	case 0:
		return randomTitle(rng)
	case 1:
		return typos(rng, s, 1+rng.Intn(3))
	case 2:
		return typos(rng, s, utf8.RuneCountInString(s)*(30+rng.Intn(40))/100) // around the threshold
	case 3:
		toks := strsim.Tokens(s)
		rng.Shuffle(len(toks), func(i, j int) { toks[i], toks[j] = toks[j], toks[i] })
		return strings.Join(toks, titlePunct[rng.Intn(len(titlePunct))])
	case 4:
		return "  " + strings.ToUpper(strings.ReplaceAll(s, " ", " - ")) + "!"
	default:
		return s + " " + titleWords[rng.Intn(len(titleWords))]
	}
}

// checkBelow holds TitleBelow, and Below on the titles prepared and on
// their copies by TitleBuf.Append, with the threshold's cut table, to
// TitleSim at every threshold.
func checkBelow(t testing.TB, a, b string, thresholds ...float64) {
	t.Helper()
	sim := strsim.TitleSim(a, b)
	var prepared, copied strsim.TitleBuf
	ta, prepared := prepared.Prepare(a)
	tb, _ := prepared.Prepare(b)
	// Copy b first, so that the copies sit at other offsets than the originals.
	cb, copied := copied.Append(tb)
	ca, _ := copied.Append(ta)
	for _, th := range thresholds {
		if got := strsim.TitleBelow(a, b, th); got != (sim < th) {
			t.Fatalf("TitleBelow(%q, %q, %v) = %v, but TitleSim = %v", a, b, th, got, sim)
		}
		cut, ok := cutTables[th]
		if !ok {
			cut = strsim.NewThreshold(th)
		}
		if got := ta.Below(tb, cut); got != (sim < th) {
			t.Fatalf("Below(%q, %q, %v) = %v, but TitleSim = %v", a, b, th, got, sim)
		}
		if got := ca.Below(cb, cut); got != (sim < th) {
			t.Fatalf("Below on copies of %q, %q at %v = %v, but TitleSim = %v", a, b, th, got, sim)
		}
	}
}

// TestTitleBelowEqualsTitleSim: the predicate the title rule runs is the
// similarity it is defined by, on every kind of title pair and threshold.
func TestTitleBelowEqualsTitleSim(t *testing.T) {
	pairs := 200_000
	if testing.Short() {
		pairs = 20_000
	}
	rng := rand.New(rand.NewSource(24))
	var below, long, equal int
	for i := 0; i < pairs; i++ {
		a := randomTitle(rng)
		b := variant(rng, a)
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		checkBelow(t, a, b, belowThresholds...)
		if strsim.TitleBelow(a, b, 0.55) {
			below++
		}
		if utf8.RuneCountInString(a) > 64 {
			long++
		}
		if strsim.Normalize(a) == strsim.Normalize(b) {
			equal++
		}
	}
	// The generator must keep covering both verdicts and the special shapes.
	if below < pairs/10 || pairs-below < pairs/10 || long < pairs/100 || equal < pairs/100 {
		t.Fatalf("generator too thin: %d of %d below 0.55, %d long, %d equal after normalisation", below, pairs, long, equal)
	}
}

// TestTitleBelowFloatBoundary pins the cut-off where it is decided by one
// ulp: single-token titles of m runes at edit distance d have similarity
// exactly 1 − d/m, and a threshold at that value, one ulp above and one ulp
// below must come out as the comparison of the floats does — which
// ⌊(1−θ)·m⌋ alone gets wrong wherever the quotient rounds.
func TestTitleBelowFloatBoundary(t *testing.T) {
	for m := 1; m <= 80; m++ {
		a := strings.Repeat("a", m)
		for d := 1; d <= m; d++ {
			b := strings.Repeat("a", m-d) + strings.Repeat("b", d)
			sim := 1 - float64(d)/float64(m)
			if got := strsim.TitleSim(a, b); got != sim {
				t.Fatalf("m=%d d=%d: TitleSim = %v, want %v", m, d, got, sim)
			}
			for _, tc := range []struct {
				threshold float64
				want      bool
			}{
				{sim, false},
				{math.Nextafter(sim, 2), true},
				{math.Nextafter(sim, -1), false},
			} {
				if got := strsim.TitleBelow(a, b, tc.threshold); got != tc.want {
					t.Errorf("m=%d d=%d sim=%v: TitleBelow at %v = %v, want %v", m, d, sim, tc.threshold, got, tc.want)
				}
			}
			checkBelow(t, a, b, belowThresholds...)
		}
	}
}

func TestTitleBelowDoesNotAllocate(t *testing.T) {
	pairs := [][2]string{
		{"Mission: Impossible", "Impossible Mission II"},
		{"Jaws", "Die Hard: With a Vengeance"},
		{"L'été indien", "L'ETE INDIEN"},
		{strings.Repeat("ab ", 21) + "a", strings.Repeat("ab ", 21) + "b"}, // 64 runes each
		{"", "---"},
	}
	for _, p := range pairs {
		if n := testing.AllocsPerRun(100, func() { strsim.TitleBelow(p[0], p[1], 0.55) }); n != 0 {
			t.Errorf("TitleBelow(%q, %q) allocates %v times per run", p[0], p[1], n)
		}
	}
}

func FuzzTitleBelow(f *testing.F) {
	f.Add("Jaws", "Jawz", 0.55)
	f.Add("Mission: Impossible", "Impossible Mission", 1.0)
	f.Add("", "!!!", 0.0)
	f.Add("L'été", "\xff\xfe", math.NaN())
	f.Add(strings.Repeat("long title ", 9), strings.Repeat("lang title ", 9), 0.9)
	f.Add("Über Straße: Ça ira", "uber strasse ca ira", 0.55)                          // not ASCII
	f.Add(strings.Repeat("abcdefgh ", 8), strings.Repeat("abcdefgh ", 7)+"abcd", 0.55) // over 64 runes
	f.Add(strings.Repeat("title words ", 22), strings.Repeat("title word ", 24), 0.55) // over 255 runes
	f.Add(strings.Repeat("a", 130)+" b", strings.Repeat("a", 129)+" c", 0.55)          // a rune more than 127 times
	f.Add("dare lion", "read loin", 0.55)                                              // the same letters, no token shared
	f.Fuzz(func(t *testing.T, a, b string, threshold float64) {
		checkBelow(t, a, b, threshold)
	})
}

func BenchmarkTitleRule(b *testing.B) {
	titles := []string{"Mission: Impossible", "Impossible Mission II", "Jaws", "Jawz", "Die Hard: With a Vengeance",
		"The Thing", "Thing, The", "Alien 3", "Solaris", "L'été indien"}
	var sink bool
	b.Run("TitleSim", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = strsim.TitleSim(titles[i%len(titles)], titles[(i/len(titles))%len(titles)]) < 0.55
		}
	})
	b.Run("TitleBelow", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = strsim.TitleBelow(titles[i%len(titles)], titles[(i/len(titles))%len(titles)], 0.55)
		}
	})
	b.Run("Prepared", func(b *testing.B) {
		var buf strsim.TitleBuf
		threshold := strsim.NewThreshold(0.55)
		prepared := make([]strsim.Title, len(titles))
		for i, t := range titles {
			prepared[i], buf = buf.Prepare(t)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink = prepared[i%len(titles)].Below(prepared[(i/len(titles))%len(titles)], threshold)
		}
	})
	_ = sink
}
