// Package strsim provides the string-similarity toolkit behind IMPrECISE's
// domain rules: sources "use different conventions for, e.g., naming
// directors, so these never match exactly" (paper §V). The Oracle's title
// and director rules are built on these measures.
package strsim

import (
	"slices"
	"sort"
	"strings"
	"unicode"
)

// Normalize lower-cases the string, maps punctuation to spaces and
// collapses whitespace runs: "Mission:  Impossible II" → "mission
// impossible ii".
func Normalize(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	space := true
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(unicode.ToLower(r))
			space = false
			continue
		}
		if !space {
			b.WriteByte(' ')
			space = true
		}
	}
	return strings.TrimRight(b.String(), " ")
}

// Tokens splits a string into normalized word tokens.
func Tokens(s string) []string {
	return splitNormalized(Normalize(s))
}

// splitNormalized splits an already normalized string into its tokens.
func splitNormalized(n string) []string {
	if n == "" {
		return nil
	}
	return strings.Split(n, " ")
}

// Levenshtein returns the edit distance (insert/delete/substitute, unit
// cost) between two strings, computed over runes.
func Levenshtein(a, b string) int {
	return levenshteinRunes([]rune(a), []rune(b))
}

func levenshteinRunes(ra, rb []rune) int {
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	// One row of the table, updated in place: row[j] is the distance of
	// ra[:i] to rb[:j]; up and diag are the values row[j] and row[j-1] held
	// for ra[:i-1], left is the new row[j-1].
	var buf [64]int
	row := buf[:]
	if len(rb) >= len(buf) {
		row = make([]int, len(rb)+1)
	}
	row = row[:len(rb)+1]
	for j := range row {
		row[j] = j
	}
	for i, ca := range ra {
		diag, left := row[0], i+1
		row[0] = left
		for j, cb := range rb {
			up := row[j+1]
			if ca != cb {
				diag++
			}
			left = min(up+1, left+1, diag)
			diag, row[j+1] = up, left
		}
	}
	return row[len(rb)]
}

// LevenshteinSim maps edit distance to a similarity in [0,1]:
// 1 − dist/max(len). Equal strings score 1; disjoint strings approach 0.
func LevenshteinSim(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	return 1 - float64(levenshteinRunes(ra, rb))/float64(max(len(ra), len(rb)))
}

// Jaro returns the Jaro similarity in [0,1].
func Jaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := la
	if lb > window {
		window = lb
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	matchA := make([]bool, la)
	matchB := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if matchB[j] || ra[i] != rb[j] {
				continue
			}
			matchA[i] = true
			matchB[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// JaroWinkler boosts Jaro similarity for strings sharing a common prefix
// (up to 4 runes), the usual variant for name matching.
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
	prefix := 0
	ra, rb := []rune(a), []rune(b)
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// TokenJaccard returns the Jaccard similarity of the normalized token sets
// of the two strings.
func TokenJaccard(a, b string) float64 {
	return jaccard(Tokens(a), Tokens(b))
}

// jaccard is the Jaccard similarity of two token lists read as sets. Titles
// and names have a handful of tokens, so membership is a scan of the list,
// not a map built per pair.
func jaccard(ta, tb []string) float64 {
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	inter, union := 0, 0
	for i, t := range ta {
		if slices.Contains(ta[:i], t) {
			continue
		}
		union++
		if slices.Contains(tb, t) {
			inter++
		}
	}
	for i, t := range tb {
		if !slices.Contains(tb[:i], t) && !slices.Contains(ta, t) {
			union++
		}
	}
	return float64(inter) / float64(union)
}

// TitleSim is the combined title similarity used by the Oracle's title
// rule: the maximum of normalized-string edit similarity and token Jaccard,
// so both misspellings ("Jaws" / "Jawz") and word-order variations
// ("Mission Impossible" / "Impossible Mission") score high. Each side is
// normalized once; both measures read the normalized form.
func TitleSim(a, b string) float64 {
	na, nb := Normalize(a), Normalize(b)
	if na == nb {
		return 1
	}
	return max(LevenshteinSim(na, nb), jaccard(splitNormalized(na), splitNormalized(nb)))
}

// NameKey canonicalizes a person name so that convention variants collide:
// "Woo, John", "John Woo" and "woo john" all map to "john woo". The key is
// the sorted normalized token list.
func NameKey(s string) string {
	toks := Tokens(s)
	sort.Strings(toks)
	return strings.Join(toks, " ")
}

// SameName reports whether two person names are equivalent up to
// convention (token order, punctuation, case).
func SameName(a, b string) bool {
	ka, kb := NameKey(a), NameKey(b)
	return ka != "" && ka == kb
}

// NameSim scores person-name similarity: 1 for convention-equivalent
// names, otherwise Jaro-Winkler over canonicalized forms (so typos still
// score high but distinct names don't).
func NameSim(a, b string) float64 {
	if SameName(a, b) {
		return 1
	}
	return JaroWinkler(NameKey(a), NameKey(b))
}
