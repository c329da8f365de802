// Package strsim provides the string-similarity toolkit behind IMPrECISE's
// domain rules: sources "use different conventions for, e.g., naming
// directors, so these never match exactly" (paper §V). The Oracle's title
// and director rules are built on these measures.
package strsim

import (
	"math"
	"slices"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Normalize lower-cases the string, maps punctuation to spaces and
// collapses whitespace runs: "Mission:  Impossible II" → "mission
// impossible ii".
func Normalize(s string) string {
	var buf [64]rune
	return string(normalizeInto(buf[:0], s))
}

// normalizeInto appends the normal form of s to dst, one rune per element:
// letters and digits lower-cased, every run of anything else one space, no
// space at either end. It reads nothing dst held before, so titles can be
// appended one after another. Callers pass a stack buffer's [:0]; it is
// outgrown (and the result heap-allocated) only by a longer string.
func normalizeInto(dst []rune, s string) []rune {
	start := len(dst)
	for _, r := range s {
		switch {
		case 'a' <= r && r <= 'z' || '0' <= r && r <= '9':
		case 'A' <= r && r <= 'Z':
			r += 'a' - 'A'
		case r >= utf8.RuneSelf && (unicode.IsLetter(r) || unicode.IsDigit(r)):
			r = unicode.ToLower(r)
		default:
			if n := len(dst); n > start && dst[n-1] != ' ' {
				dst = append(dst, ' ')
			}
			continue
		}
		dst = append(dst, r)
	}
	if n := len(dst); n > start && dst[n-1] == ' ' {
		dst = dst[:n-1]
	}
	return dst
}

// Tokens splits a string into normalized word tokens.
func Tokens(s string) []string {
	n := Normalize(s)
	if n == "" {
		return nil
	}
	return strings.Split(n, " ")
}

// Levenshtein returns the edit distance (insert/delete/substitute, unit
// cost) between two strings, computed over runes.
func Levenshtein(a, b string) int {
	return editDistance([]rune(a), []rune(b), math.MaxInt)
}

// editDistance returns the edit distance of ra and rb when it is at most
// limit, and otherwise some value above limit, found as cheaply as that can
// be known: by two lower bounds, the length difference (every surplus rune
// is an insertion) and the bag distance (max(len) less the runes the two
// share as multisets, runes equal in their low seven bits counted equal);
// then by the bit-parallel kernel (see myers), or else the table a row at a
// time until a row's minimum, which never decreases, exceeds limit.
func editDistance(ra, rb []rune, limit int) int {
	if len(ra) < len(rb) {
		ra, rb = rb, ra
	}
	if len(rb) == 0 || len(ra)-len(rb) > limit {
		return len(ra) - len(rb)
	}
	if limit < len(ra) {
		var bag [128]int32
		for _, r := range ra {
			bag[r&127]++
		}
		common := 0
		for _, r := range rb {
			if bag[r&127] > 0 {
				bag[r&127]--
				common++
			}
		}
		if d := len(ra) - common; d > limit {
			return d
		}
	}
	if d, ok := myers(ra, rb); ok {
		return d
	}
	// One row of the table, updated in place: row[j] is the distance of
	// ra[:i] to rb[:j]; up and diag are the values row[j] and row[j-1] held
	// for ra[:i-1], left is the new row[j-1].
	var buf [65]int
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
		rowMin := left
		for j, cb := range rb {
			up := row[j+1]
			if ca != cb {
				diag++
			}
			left = min(up+1, left+1, diag)
			diag, row[j+1] = up, left
			rowMin = min(rowMin, left)
		}
		if rowMin > limit {
			return rowMin
		}
	}
	return row[len(rb)]
}

// alphabet numbers the ASCII runes of the normal form — letters, digits and
// the space — from 1; every other rune is 0.
var alphabet = func() (a [utf8.RuneSelf]uint8) {
	for i, r := range "abcdefghijklmnopqrstuvwxyz0123456789 " {
		a[r] = uint8(i + 1)
	}
	return a
}()

// myers is Myers' bit-parallel edit distance in Hyyrö's formulation: a
// column of the table is two bit vectors of vertical deltas over the
// pattern p, advanced by a dozen word operations per rune of the text t. It
// takes p of 1 to 64 runes of the normal form's ASCII alphabet, else !ok.
func myers(t, p []rune) (d int, ok bool) {
	if len(p) == 0 || len(p) > 64 {
		return 0, false
	}
	var peq [38]uint64 // peq[alphabet[r]] has bit i set where p[i] == r; peq[0] stays 0
	for i, r := range p {
		if uint32(r) >= utf8.RuneSelf || alphabet[r] == 0 {
			return 0, false
		}
		peq[alphabet[r]] |= 1 << i
	}
	last := uint64(1) << (len(p) - 1)
	pv, mv := ^uint64(0), uint64(0)
	d = len(p)
	for _, r := range t {
		var eq uint64
		if uint32(r) < utf8.RuneSelf {
			eq = peq[alphabet[r]]
		}
		xv := eq | mv
		xh := ((eq & pv) + pv) ^ pv | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&last != 0 {
			d++
		} else if mh&last != 0 {
			d--
		}
		ph = ph<<1 | 1 // the top row grows by one per column
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
	}
	return d, true
}

// LevenshteinSim maps edit distance to a similarity in [0,1]:
// 1 − dist/max(len). Equal strings score 1; disjoint strings approach 0.
func LevenshteinSim(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	return editSim(editDistance(ra, rb, math.MaxInt), max(len(ra), len(rb)))
}

// editSim is the similarity of two strings at edit distance d whose longer
// one has m > 0 runes. maxDistance inverts exactly this expression.
func editSim(d, m int) float64 { return 1 - float64(d)/float64(m) }

// maxDistance returns the largest edit distance d in [-1, m] at which two
// strings, the longer of m > 0 runes, are not yet below the threshold:
// !(editSim(d, m) < threshold), and editSim(d+1, m) < threshold unless
// d == m. editSim does not increase with d, so an estimate is stepped to
// the boundary with the float expression itself — ⌊(1−threshold)·m⌋ alone
// is off by one where the quotient rounds across the threshold.
func maxDistance(m int, threshold float64) int {
	d := 0
	if e := (1 - threshold) * float64(m); e >= float64(m) {
		d = m
	} else if e > 0 {
		d = int(e)
	}
	for d < m && !(editSim(d+1, m) < threshold) {
		d++
	}
	for d >= 0 && editSim(d, m) < threshold {
		d--
	}
	return d
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
	var space TitleSpace
	ta, buf := space.Buf().Prepare(a)
	tb, _ := buf.Prepare(b)
	return jaccard(ta, tb)
}

// Title is a string prepared for the title measures: its normal form and
// the spans of its distinct tokens. A caller comparing many titles with
// many others prepares each once (see TitleBuf) and compares with Below.
type Title struct {
	norm []rune
	toks []span
}

// span is one token of a normalized rune string: n[lo:hi].
type span struct{ lo, hi int32 }

// TitleBuf holds prepared titles in two pointer-free arenas, of runes and of
// token spans. A Title stays valid when the arenas grow, until the buffer is
// Reset. The zero TitleBuf is empty and ready.
type TitleBuf struct {
	runes []rune
	toks  []span
}

// Reset empties the buffer, keeping its storage; its titles become invalid.
func (b TitleBuf) Reset() TitleBuf { return TitleBuf{runes: b.runes[:0], toks: b.toks[:0]} }

// Prepare normalizes and tokenizes s at the end of the buffer, and returns
// the prepared title and the buffer grown by it.
func (b TitleBuf) Prepare(s string) (Title, TitleBuf) {
	lo, tlo := len(b.runes), len(b.toks)
	b.runes = normalizeInto(b.runes, s)
	n := b.runes[lo:len(b.runes):len(b.runes)]
	b.toks = distinctTokens(n, b.toks)
	return Title{norm: n, toks: b.toks[tlo:len(b.toks):len(b.toks)]}, b
}

// Append copies a prepared title to the end of the buffer, and returns the
// copy and the buffer grown by it.
func (b TitleBuf) Append(t Title) (Title, TitleBuf) {
	lo, tlo := len(b.runes), len(b.toks)
	b.runes, b.toks = append(b.runes, t.norm...), append(b.toks, t.toks...)
	return Title{norm: b.runes[lo:len(b.runes):len(b.runes)], toks: b.toks[tlo:len(b.toks):len(b.toks)]}, b
}

// TitleSpace is stack room for preparing two titles of up to 64 runes and 16
// distinct tokens each without allocating; a longer title spills.
type TitleSpace struct {
	runes [128]rune
	toks  [32]span
}

// Buf returns an empty TitleBuf over the space.
func (s *TitleSpace) Buf() TitleBuf { return TitleBuf{runes: s.runes[:0], toks: s.toks[:0]} }

// distinctTokens appends the spans of n's distinct tokens, in order of first
// occurrence, to dst; a token is compared with those it appended only.
func distinctTokens(n []rune, dst []span) []span {
	first := len(dst)
	for lo := 0; lo < len(n); {
		hi := lo
		for hi < len(n) && n[hi] != ' ' {
			hi++
		}
		seen := false
		for _, s := range dst[first:] {
			if seen = slices.Equal(n[s.lo:s.hi], n[lo:hi]); seen {
				break
			}
		}
		if !seen {
			dst = append(dst, span{int32(lo), int32(hi)})
		}
		lo = hi + 1
	}
	return dst
}

// jaccard is the Jaccard similarity of the token sets of two prepared
// titles. Tokens are spans of the runes, not strings, and titles and names
// have a handful of them: the intersection is counted over the two lists of
// distinct tokens.
func jaccard(a, b Title) float64 {
	if len(a.norm) == 0 && len(b.norm) == 0 {
		return 1
	}
	inter := 0
	for _, x := range a.toks {
		for _, y := range b.toks {
			if slices.Equal(a.norm[x.lo:x.hi], b.norm[y.lo:y.hi]) {
				inter++
				break
			}
		}
	}
	return float64(inter) / float64(len(a.toks)+len(b.toks)-inter)
}

// TitleSim is the combined title similarity used by the Oracle's title
// rule: the maximum of normalized-string edit similarity and token Jaccard,
// so both misspellings ("Jaws" / "Jawz") and word-order variations
// ("Mission Impossible" / "Impossible Mission") score high. Each side is
// prepared once; both measures read the prepared form.
func TitleSim(a, b string) float64 {
	var space TitleSpace
	ta, buf := space.Buf().Prepare(a)
	tb, _ := buf.Prepare(b)
	na, nb := ta.norm, tb.norm
	if slices.Equal(na, nb) {
		return 1
	}
	m := max(len(na), len(nb))
	return max(editSim(editDistance(na, nb, math.MaxInt), m), jaccard(ta, tb))
}

// TitleBelow reports TitleSim(a, b) < threshold, which is all the title
// rule asks: it prepares both titles and asks Below. It does not allocate
// for titles of at most 64 runes.
func TitleBelow(a, b string, threshold float64) bool {
	var space TitleSpace
	ta, buf := space.Buf().Prepare(a)
	tb, _ := buf.Prepare(b)
	return ta.Below(tb, threshold)
}

// Below reports TitleSim(a, b) < threshold for the strings t and u were
// prepared from, without computing the similarity: the edit distance is
// pursued only as far as the largest one that still reaches the threshold,
// and the token sets are compared only when it is out of reach.
func (t Title) Below(u Title, threshold float64) bool {
	na, nb := t.norm, u.norm
	if slices.Equal(na, nb) {
		return 1 < threshold
	}
	if cut := maxDistance(max(len(na), len(nb)), threshold); editDistance(na, nb, cut) <= cut {
		return false
	}
	return jaccard(t, u) < threshold
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
