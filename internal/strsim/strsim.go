// Package strsim provides the string-similarity toolkit behind IMPrECISE's
// domain rules: sources "use different conventions for, e.g., naming
// directors, so these never match exactly" (paper §V). The Oracle's title
// and director rules are built on these measures.
package strsim

import (
	"encoding/binary"
	"math"
	"math/bits"
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
		if r := normalRune(r); r != 0 {
			dst = append(dst, r)
		} else if n := len(dst); n > start && dst[n-1] != ' ' {
			dst = append(dst, ' ')
		}
	}
	if n := len(dst); n > start && dst[n-1] == ' ' {
		dst = dst[:n-1]
	}
	return dst
}

// normalRune returns r as the normal form has it, lower-cased, or 0 for a
// rune the normal form turns into a space. The ASCII case is a table
// look-up, so that the call inlines into the loops over a title.
func normalRune(r rune) rune {
	if r < utf8.RuneSelf {
		return lowerASCII[r]
	}
	return foreignRune(r)
}

// foreignRune is normalRune past ASCII.
func foreignRune(r rune) rune {
	if unicode.IsLetter(r) || unicode.IsDigit(r) {
		return unicode.ToLower(r)
	}
	return 0
}

// lowerASCII maps the ASCII letters and digits to their normal form, and
// every other ASCII rune to 0.
var lowerASCII = func() (a [utf8.RuneSelf]rune) {
	for r := range a {
		switch {
		case 'a' <= r && r <= 'z' || '0' <= r && r <= '9':
			a[r] = rune(r)
		case 'A' <= r && r <= 'Z':
			a[r] = rune(r) + 'a' - 'A'
		}
	}
	return a
}()

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
	return editKernel(ra, rb, limit)
}

// editKernel is editDistance past its lower bounds, for len(ra) >= len(rb) > 0.
func editKernel(ra, rb []rune, limit int) int {
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
// its signature. A caller comparing many titles with many others prepares
// each once (see TitleBuf) and compares with Below. The zero Title is not
// prepared.
type Title struct {
	norm []rune
	// sig is what Below reads of the title besides its runes, in words:
	// sig[:laneWords] counts the runes by symbol, a byte per lane (see
	// Prepare); sig[maskWord] has one bit set per distinct token, chosen by
	// the token's hash, so titles whose masks are disjoint share no token;
	// and each word from tokWord on is the span lo<<32 | hi of one distinct
	// token norm[lo:hi], in order of first occurrence.
	sig []uint64
}

const (
	laneWords = 5
	maskWord  = laneWords
	tokWord   = maskWord + 1
)

// TitleBuf holds prepared titles in two pointer-free arenas, of runes and of
// signature words. A Title stays valid when the arenas grow, until the
// buffer is Reset. The zero TitleBuf is empty and ready.
type TitleBuf struct {
	runes []rune
	sigs  []uint64
}

// Reset empties the buffer, keeping its storage; its titles become invalid.
func (b TitleBuf) Reset() TitleBuf { return TitleBuf{runes: b.runes[:0], sigs: b.sigs[:0]} }

// Prepare normalizes and signs s at the end of the buffer, in one pass over
// s, and returns the prepared title and the buffer grown by it. Lane
// alphabet[r] counts an ASCII rune r of the normal form, lane 0 every other
// rune. A title of 128 runes or more has no bag: a lane may have wrapped,
// so lane 0 is set to 128, whose top bit shared reads. A token whose mask
// bit is not set yet is new without a look at the tokens before it.
func (b TitleBuf) Prepare(s string) (Title, TitleBuf) {
	lo, slo := len(b.runes), len(b.sigs)
	b.sigs = append(b.sigs, make([]uint64, tokWord)...)
	var lanes [64]uint8
	var mask uint64
	h, tok := uint64(0), lo // the hash and start of the current token
	addToken := func() {
		bit := uint64(1) << (h * tokenMix >> 58)
		if mask&bit != 0 {
			for _, w := range b.sigs[slo+tokWord:] {
				if slices.Equal(b.runes[lo+int(w>>32):lo+int(uint32(w))], b.runes[tok:]) {
					return
				}
			}
		}
		mask |= bit
		b.sigs = append(b.sigs, uint64(tok-lo)<<32|uint64(len(b.runes)-lo))
	}
	for _, r := range s {
		if r = normalRune(r); r == 0 {
			if len(b.runes) == tok {
				continue
			}
			addToken()
			r, h, tok = ' ', 0, len(b.runes)+1
		} else {
			h = bits.RotateLeft64(h, 7) ^ uint64(r)
		}
		b.runes = append(b.runes, r)
		l := uint8(0) // lane 0 past ASCII
		if r < utf8.RuneSelf {
			l = alphabet[r]
		}
		lanes[l&63]++
	}
	if len(b.runes) > tok {
		addToken()
	} else if len(b.runes) > lo { // a space no token follows
		b.runes = b.runes[:len(b.runes)-1]
		lanes[alphabet[' ']]--
	}
	if len(b.runes)-lo >= 128 {
		lanes[0] = 128 // a lane may have wrapped: no bag
	}
	sig := b.sigs[slo:len(b.sigs):len(b.sigs)]
	for w := range laneWords {
		sig[w] = binary.LittleEndian.Uint64(lanes[8*w:])
	}
	sig[maskWord] = mask
	return Title{norm: b.runes[lo:len(b.runes):len(b.runes)], sig: sig}, b
}

// Append copies a prepared title to the end of the buffer, and returns the
// copy and the buffer grown by it.
func (b TitleBuf) Append(t Title) (Title, TitleBuf) {
	lo, slo := len(b.runes), len(b.sigs)
	b.runes, b.sigs = append(b.runes, t.norm...), append(b.sigs, t.sig...)
	return Title{norm: b.runes[lo:len(b.runes):len(b.runes)], sig: b.sigs[slo:len(b.sigs):len(b.sigs)]}, b
}

// TitleSpace is stack room for preparing two titles of up to 64 runes and 16
// distinct tokens each without allocating; a longer title spills.
type TitleSpace struct {
	runes [128]rune
	sigs  [2 * (tokWord + 16)]uint64
}

// Buf returns an empty TitleBuf over the space.
func (s *TitleSpace) Buf() TitleBuf { return TitleBuf{runes: s.runes[:0], sigs: s.sigs[:0]} }

// tokenMix spreads a token's rotate-and-xor hash over the top bits, which
// choose its mask bit.
const tokenMix = 0x9e3779b97f4a7c15

// shared returns how many runes two titles share as bags of symbols, the
// sum over the lanes of the smaller count, or -1 when either has no bag (a
// lane's top bit is set). Each word holds eight lanes of at most 127, so
// (x|0x80…)−y borrows within no lane and leaves a lane's top bit set where
// x ≥ y; the minima are then summed in 16-bit lanes.
func shared(a, b []uint64) int {
	const top, low = 0x8080808080808080, 0x00ff00ff00ff00ff
	var sum, all uint64
	for w := range laneWords {
		x, y := a[w], b[w]
		all |= x | y
		ge := ((x | top) - y) & top >> 7 * 0xff // 0xff in the lanes where x >= y
		m := y&ge | x&^ge
		sum += m&low + m>>8&low
	}
	if all&top != 0 {
		return -1
	}
	return int(sum * 0x0001000100010001 >> 48)
}

// jaccard is the Jaccard similarity of the token sets of two prepared
// titles. Tokens are spans of the runes, not strings, and titles and names
// have a handful of them: the intersection is counted over the two lists of
// distinct tokens.
func jaccard(a, b Title) float64 {
	if len(a.norm) == 0 && len(b.norm) == 0 {
		return 1
	}
	ta, tb := a.sig[tokWord:], b.sig[tokWord:]
	inter := 0
	for _, x := range ta {
		for _, y := range tb {
			if slices.Equal(a.norm[x>>32:uint32(x)], b.norm[y>>32:uint32(y)]) {
				inter++
				break
			}
		}
	}
	return float64(inter) / float64(len(ta)+len(tb)-inter)
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
	return ta.Below(tb, Threshold{value: threshold})
}

// Threshold is a similarity threshold as Below takes it. NewThreshold gives
// it a cut table, built once: the largest edit distance at which two titles
// still reach it, by the longer one's rune count. Without one (as
// TitleBelow passes it) the cut is computed per pair.
type Threshold struct {
	value float64
	cuts  *[256]int16 // cuts[m] is maxDistance(m, value), for 0 < m < 256
}

// NewThreshold returns the threshold v with its cut table.
func NewThreshold(v float64) Threshold {
	cuts := new([256]int16)
	for m := 1; m < len(cuts); m++ {
		cuts[m] = int16(maxDistance(m, v))
	}
	return Threshold{value: v, cuts: cuts}
}

func (th Threshold) cut(m int) int {
	if th.cuts != nil && m < len(th.cuts) {
		return int(th.cuts[m])
	}
	return maxDistance(m, th.value)
}

// Below reports TitleSim(a, b) < th for the strings t and u were prepared
// from, without computing the similarity. The edit similarity reaches th
// only within the cut, and a difference in length or in the bags of runes
// beyond it rules that out in O(1); the token similarity is 0 when the
// token masks are disjoint. Only a pair neither settles is pursued: the edit
// distance as far as the cut, then the token sets.
func (t Title) Below(u Title, th Threshold) bool {
	na, nb := t.norm, u.norm
	if slices.Equal(na, nb) {
		return 1 < th.value
	}
	if t.within(u, th.cut(max(len(na), len(nb)))) {
		return false
	}
	if t.sig[maskWord]&u.sig[maskWord] == 0 {
		return 0 < th.value // the titles differ, so at least one has a token
	}
	return jaccard(t, u) < th.value
}

// within reports whether the edit distance of t and u is at most cut. The
// length difference and the bag distance (the longer length less the runes
// the two share) are lower bounds of it; past them it is editDistance's
// kernel, or editDistance itself where the lanes are no bag.
func (t Title) within(u Title, cut int) bool {
	ra, rb := t.norm, u.norm
	if len(ra) < len(rb) {
		ra, rb = rb, ra
	}
	if len(ra)-len(rb) > cut {
		return false
	}
	s := shared(t.sig, u.sig)
	if s < 0 {
		return editDistance(ra, rb, cut) <= cut
	}
	if len(ra)-s > cut {
		return false
	}
	return len(rb) == 0 || editKernel(ra, rb, cut) <= cut
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
