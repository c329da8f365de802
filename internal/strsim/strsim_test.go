package strsim_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/strsim"
)

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Mission:  Impossible II", "mission impossible ii"},
		{"  Die Hard!!! ", "die hard"},
		{"", ""},
		{"---", ""},
		{"Jaws 2", "jaws 2"},
		{"L'été", "l été"},
	}
	for _, tc := range cases {
		if got := strsim.Normalize(tc.in); got != tc.want {
			t.Errorf("Normalize(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestTokens(t *testing.T) {
	got := strsim.Tokens("Die Hard: With a Vengeance")
	want := []string{"die", "hard", "with", "a", "vengeance"}
	if len(got) != len(want) {
		t.Fatalf("Tokens = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Tokens = %v, want %v", got, want)
		}
	}
	if strsim.Tokens("!!!") != nil {
		t.Fatalf("punctuation-only should have no tokens")
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"jaws", "jaws", 0},
		{"jaws", "jawz", 1},
		{"flaw", "lawn", 2},
		{"über", "uber", 1}, // rune-based, not byte-based
		// Longer than the stack-allocated table row: 70 deletions, one substitution.
		{strings.Repeat("ab", 70) + "x", strings.Repeat("ab", 35) + "y", 71},
	}
	for _, tc := range cases {
		if got := strsim.Levenshtein(tc.a, tc.b); got != tc.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestLevenshteinProperties(t *testing.T) {
	alphabet := []rune("abcx")
	randStr := func(rng *rand.Rand) string {
		n := rng.Intn(8)
		out := make([]rune, n)
		for i := range out {
			out[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(out)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := randStr(rng), randStr(rng), randStr(rng)
		dab := strsim.Levenshtein(a, b)
		dba := strsim.Levenshtein(b, a)
		if dab != dba { // symmetry
			return false
		}
		if (dab == 0) != (a == b) { // identity
			return false
		}
		// triangle inequality
		dac := strsim.Levenshtein(a, c)
		dcb := strsim.Levenshtein(c, b)
		return dab <= dac+dcb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLevenshteinSim(t *testing.T) {
	if got := strsim.LevenshteinSim("", ""); got != 1 {
		t.Fatalf("empty sim = %v", got)
	}
	if got := strsim.LevenshteinSim("jaws", "jaws"); got != 1 {
		t.Fatalf("equal sim = %v", got)
	}
	if got := strsim.LevenshteinSim("abcd", "wxyz"); got != 0 {
		t.Fatalf("disjoint sim = %v", got)
	}
	if got := strsim.LevenshteinSim("jaws", "jawz"); got != 0.75 {
		t.Fatalf("one-edit sim = %v", got)
	}
}

func TestJaroWinkler(t *testing.T) {
	if got := strsim.Jaro("", ""); got != 1 {
		t.Fatalf("Jaro empty = %v", got)
	}
	if got := strsim.Jaro("a", ""); got != 0 {
		t.Fatalf("Jaro vs empty = %v", got)
	}
	if got := strsim.Jaro("martha", "marhta"); got < 0.94 || got > 0.95 {
		t.Fatalf("Jaro(martha,marhta) = %v, want ≈0.944", got)
	}
	jw := strsim.JaroWinkler("martha", "marhta")
	if jw < 0.96 || jw > 0.97 {
		t.Fatalf("JaroWinkler(martha,marhta) = %v, want ≈0.961", jw)
	}
	if strsim.JaroWinkler("john", "john") != 1 {
		t.Fatalf("identical JW != 1")
	}
	if got := strsim.Jaro("ab", "cd"); got != 0 {
		t.Fatalf("no matches should be 0, got %v", got)
	}
}

func TestTokenJaccard(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"", "", 1},
		{"a", "", 0},
		{"die hard", "Die Hard!", 1},
		{"mission impossible", "impossible mission", 1},
		{"die hard", "die easy", 1.0 / 3},
		{"jaws", "die hard", 0},
		{"die hard", "...die hard", 1},
		{"(Jaws)", "jaws", 1},
		{" Jaws", "jaws", 1},
		{"'Round Midnight", "round midnight", 1},
		{"...And Justice for All", "and justice for all", 1},
	}
	for _, tc := range cases {
		if got := strsim.TokenJaccard(tc.a, tc.b); !close(got, tc.want) {
			t.Errorf("TokenJaccard(%q,%q) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestTokenJaccardMatchesSetDefinition: the span-array Jaccard gives bit for
// bit what the definition over token sets gives, on random word lists with
// repeats, punctuation and case variants, including sides of more than the
// sixteen distinct tokens its stack arrays hold.
func TestTokenJaccardMatchesSetDefinition(t *testing.T) {
	words := []string{"the", "The", "thing", "jaws", "Jaws!", "(Jaws)", "...of", "ii", "2", "été", "mission", "impossible", "a", "of"}
	for i := 0; i < 40; i++ {
		words = append(words, fmt.Sprintf("w%d", i))
	}
	rng := rand.New(rand.NewSource(11))
	phrase := func() string {
		n := rng.Intn(25)
		ws := make([]string, n)
		for i := range ws {
			ws[i] = words[rng.Intn(len(words))]
		}
		return strings.Join(ws, []string{" ", ", ", " - "}[rng.Intn(3)])
	}
	spilled := 0
	for i := 0; i < 20000; i++ {
		a, b := phrase(), phrase()
		sa, sb := map[string]bool{}, map[string]bool{}
		for _, tok := range strsim.Tokens(a) {
			sa[tok] = true
		}
		for _, tok := range strsim.Tokens(b) {
			sb[tok] = true
		}
		want, inter := 1.0, 0
		for tok := range sa {
			if sb[tok] {
				inter++
			}
		}
		if union := len(sa) + len(sb) - inter; union > 0 {
			want = float64(inter) / float64(union)
		}
		if got := strsim.TokenJaccard(a, b); got != want {
			t.Fatalf("TokenJaccard(%q, %q) = %v, the set definition gives %v", a, b, got, want)
		}
		if len(sa) > 16 || len(sb) > 16 {
			spilled++
		}
	}
	if spilled < 1000 {
		t.Fatalf("only %d pairs had a side of more than 16 distinct tokens", spilled)
	}
}

func close(a, b float64) bool { d := a - b; return d < 1e-9 && d > -1e-9 }

func TestTitleSim(t *testing.T) {
	// Word-order variant (the paper's 'Impossible Mission' confusion).
	if got := strsim.TitleSim("Mission: Impossible", "Impossible Mission"); got != 1 {
		t.Fatalf("order variant = %v, want 1", got)
	}
	// Typo variant.
	if got := strsim.TitleSim("Jaws", "Jawz"); got < 0.7 {
		t.Fatalf("typo variant = %v, want high", got)
	}
	// Sequels are similar but not equal.
	seq := strsim.TitleSim("Mission: Impossible", "Mission: Impossible II")
	if seq < 0.6 || seq >= 1 {
		t.Fatalf("sequel sim = %v, want in [0.6,1)", seq)
	}
	// Unrelated titles score low.
	if got := strsim.TitleSim("Jaws", "Die Hard"); got > 0.4 {
		t.Fatalf("unrelated sim = %v, want low", got)
	}
	if strsim.TitleSim("Jaws", "Jaws") != 1 {
		t.Fatalf("identical titles != 1")
	}
}

// TestTitleSimMatchesItsDefinition: TitleSim normalizes each side once and
// shares the result between its two measures; the value must be exactly
// what the public measures give when each normalizes for itself, on strings
// with mixed case, punctuation (leading too), repeated tokens, non-ASCII
// letters and titles longer than the edit distance's stack row.
func TestTitleSimMatchesItsDefinition(t *testing.T) {
	titles := []string{"", "---", "Jaws", "JAWS!", "Jawz", "Jaws 2", "The Thing", "Thing, The", "the the thing",
		"L'été indien", "L'ETE INDIEN", "Ǆungla", "Mission: Impossible", "Impossible Mission II",
		"(Jaws)", " Jaws", "'Round Midnight", "...And Justice for All",
		"A Very Long Engagement of Many Words That Outgrows Sixty-Four Runes by a Comfortable Margin",
		"A Very Long Engagement of Many Words That Outgrows Sixty Four Runes by an Uncomfortable Margin"}
	for _, a := range titles {
		for _, b := range titles {
			want := 1.0
			if na, nb := strsim.Normalize(a), strsim.Normalize(b); na != nb {
				want = max(strsim.LevenshteinSim(na, nb), strsim.TokenJaccard(a, b))
			}
			if got := strsim.TitleSim(a, b); got != want {
				t.Errorf("TitleSim(%q, %q) = %v, its definition gives %v", a, b, got, want)
			}
		}
	}
}

func TestNameConventions(t *testing.T) {
	if !strsim.SameName("Woo, John", "John Woo") {
		t.Fatalf("comma convention should match")
	}
	if !strsim.SameName("JOHN  McTIERNAN", "McTiernan, John") {
		t.Fatalf("case and order should not matter")
	}
	if strsim.SameName("John Woo", "John Wu") {
		t.Fatalf("different surnames should not match")
	}
	if strsim.SameName("", "") {
		t.Fatalf("empty names should not match")
	}
	if strsim.NameKey("Woo, John") != "john woo" {
		t.Fatalf("NameKey = %q", strsim.NameKey("Woo, John"))
	}
}

func TestNameSim(t *testing.T) {
	if strsim.NameSim("Woo, John", "John Woo") != 1 {
		t.Fatalf("convention-equivalent names should score 1")
	}
	typo := strsim.NameSim("John McTiernan", "John McTiernen")
	if typo < 0.9 {
		t.Fatalf("typo name sim = %v, want > 0.9", typo)
	}
	diff := strsim.NameSim("John Woo", "Steven Spielberg")
	if diff > 0.6 {
		t.Fatalf("different names sim = %v, want low", diff)
	}
}

func TestSimilaritiesInRange(t *testing.T) {
	words := []string{"", "a", "jaws", "jaws 2", "Die Hard", "mission impossible",
		"Impossible Mission III", "John Woo", "Woo, John", "漢字テスト"}
	for _, a := range words {
		for _, b := range words {
			for name, f := range map[string]func(string, string) float64{
				"LevenshteinSim": strsim.LevenshteinSim,
				"Jaro":           strsim.Jaro,
				"JaroWinkler":    strsim.JaroWinkler,
				"TokenJaccard":   strsim.TokenJaccard,
				"TitleSim":       strsim.TitleSim,
				"NameSim":        strsim.NameSim,
			} {
				v := f(a, b)
				if v < 0 || v > 1 {
					t.Fatalf("%s(%q,%q) = %v out of [0,1]", name, a, b, v)
				}
				if w := f(b, a); !close(v, w) {
					t.Fatalf("%s not symmetric on (%q,%q): %v vs %v", name, a, b, v, w)
				}
			}
		}
	}
}
