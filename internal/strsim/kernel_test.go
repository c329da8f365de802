package strsim

import (
	"math/rand"
	"strings"
	"testing"
)

// textbookDistance is the edit distance by the full table, the definition
// editDistance's kernel and row walk are held to.
func textbookDistance(a, b []rune) int {
	d := make([][]int, len(a)+1)
	for i := range d {
		d[i] = make([]int, len(b)+1)
		d[i][0] = i
	}
	for j := range d[0] {
		d[0][j] = j
	}
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			d[i][j] = min(d[i-1][j]+1, d[i][j-1]+1, d[i-1][j-1]+cost)
		}
	}
	return d[len(a)][len(b)]
}

// checkDistance holds editDistance to its contract at every limit from 0 to
// max(len) and without one: the result is at most the limit exactly when
// the distance is, and then it is the distance.
func checkDistance(t testing.TB, a, b []rune) {
	t.Helper()
	want := textbookDistance(a, b)
	for limit := 0; limit <= max(len(a), len(b))+1; limit++ {
		got := editDistance(a, b, limit)
		if (got <= limit) != (want <= limit) || (got <= limit && got != want) {
			t.Fatalf("editDistance(%q, %q, %d) = %d, distance %d", string(a), string(b), limit, got, want)
		}
	}
	if got := editDistance(a, b, int(^uint(0)>>1)); got != want {
		t.Fatalf("editDistance(%q, %q) without a limit = %d, distance %d", string(a), string(b), got, want)
	}
}

// kernelRunes are the runes the test strings are drawn from: the normal
// form's ASCII alphabet, other ASCII, and runes past it.
var (
	normalRunes = []rune("abcdefghijklmnopqrstuvwxyz0123456789 ")
	otherRunes  = []rune("AZ!-'\x00\x7féüß漢İ�")
)

func randomRunes(rng *rand.Rand, n int, foreign bool) []rune {
	r := make([]rune, n)
	for i := range r {
		if foreign && rng.Intn(8) == 0 {
			r[i] = otherRunes[rng.Intn(len(otherRunes))]
		} else {
			r[i] = normalRunes[rng.Intn(len(normalRunes))]
		}
	}
	return r
}

// mutate applies k random edits, so that the distance to the original is
// small and every limit near it is met.
func mutate(rng *rand.Rand, r []rune, k int) []rune {
	r = append([]rune(nil), r...)
	for ; k > 0; k-- {
		c := normalRunes[rng.Intn(len(normalRunes))]
		i := rng.Intn(len(r) + 1)
		switch {
		case len(r) == 0 || i == len(r) || rng.Intn(3) == 0:
			r = append(r[:i], append([]rune{c}, r[i:]...)...)
		case rng.Intn(2) == 0:
			r = append(r[:i], r[i+1:]...)
		default:
			r[i] = c
		}
	}
	return r
}

// TestEditDistanceKernelMatchesDP: the bit-parallel kernel, and the row walk
// it falls back to, answer as the textbook table does, on patterns from the
// kernel's alphabet and outside it, at 63, 64 and 65 runes, empty, and
// paired with texts of every length up to past the pattern's.
func TestEditDistanceKernelMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	var kernel, fallback int
	for _, n := range []int{0, 1, 2, 7, 20, 63, 64, 65, 90} {
		for trial := 0; trial < 30; trial++ {
			foreign := trial%3 == 0
			p := randomRunes(rng, n, foreign)
			for _, q := range [][]rune{
				randomRunes(rng, rng.Intn(n+10), foreign),
				mutate(rng, p, rng.Intn(6)),
				mutate(rng, p, n/2),
				nil,
			} {
				checkDistance(t, p, q)
				short := p
				if len(q) < len(p) {
					short = q
				}
				if _, ok := myers(nil, short); ok {
					kernel++
				} else {
					fallback++
				}
			}
		}
	}
	if kernel < 400 || fallback < 150 {
		t.Fatalf("cases too thin: %d through the kernel, %d through the row walk", kernel, fallback)
	}
}

// TestMyersScope: the kernel takes 1 to 64 runes of the normal form's
// alphabet as its pattern and nothing else.
func TestMyersScope(t *testing.T) {
	for _, tc := range []struct {
		p  string
		ok bool
	}{
		{"", false},
		{"a", true},
		{strings.Repeat("ab 9", 16), true},
		{strings.Repeat("ab 9", 16) + "x", false},
		{"jaws II", false},
		{"été", false},
		{"jaws-2", false},
	} {
		if _, ok := myers([]rune("text"), []rune(tc.p)); ok != tc.ok {
			t.Errorf("myers with pattern %q: ok = %v, want %v", tc.p, ok, tc.ok)
		}
	}
}

func FuzzEditDistance(f *testing.F) {
	f.Add("jaws", "jawz", 1)
	f.Add("", "abc", 0)
	f.Add(strings.Repeat("a", 64), strings.Repeat("a", 63)+"b", 1)
	f.Add(strings.Repeat("ab", 33), strings.Repeat("ba", 33), 5)
	f.Add("l été", "l ete", 2)
	f.Fuzz(func(t *testing.T, a, b string, limit int) {
		ra, rb := []rune(a), []rune(b)
		if len(ra) > 200 || len(rb) > 200 {
			return
		}
		want := textbookDistance(ra, rb)
		limit = min(max(limit, -1), max(len(ra), len(rb))+1)
		got := editDistance(ra, rb, limit)
		if (got <= limit) != (want <= limit) || (got <= limit && got != want) {
			t.Fatalf("editDistance(%q, %q, %d) = %d, distance %d", a, b, limit, got, want)
		}
	})
}
