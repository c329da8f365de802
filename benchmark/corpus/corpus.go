// Package corpus generates the benchmark's inputs: movie catalogs in the
// schema `imprecise serve -rules genre,title,year` understands, drawn from
// a seeded universe of fictional titles, with the ground truth (which
// record denotes which movie) kept beside the XML.
//
// Two kinds of source exist. A clean source has every field present and
// exact; consecutive sources alternate the director naming convention
// ("Ava Lind" / "Lind, Ava") and share a fifth of their movies, so an
// integration leaves a few undecided pairs. A messy source carries the
// defects of real multi-source data — missing years, years written as text
// ("c. 1975", "75"), single-character title typos, duplicated records — so
// the year and title rules abstain more often, candidate components grow
// and the world count explodes.
//
// The package depends on nothing in the server: a change to the system
// under test cannot change its own inputs. The same seed gives the same
// bytes.
package corpus

import (
	"fmt"
	"math/rand"
	"strings"
)

// DTD is the schema knowledge the server is started with.
const DTD = `<!ELEMENT catalog (movie*)>
<!ELEMENT movie (title, year?, genre*, director+)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT year (#PCDATA)>
<!ELEMENT genre (#PCDATA)>
<!ELEMENT director (#PCDATA)>
`

// Movie is one real-world object of the universe.
type Movie struct {
	Title  string
	Year   int
	Genres []string
	// Director is spelled "First Last". Every movie has exactly one: after
	// the feedback loop rejects the other spelling of it, the merged movie
	// is certain again, whereas a second director would leave the movie's
	// fields under a choice point, where no rule can read the title, and
	// every later source would be undecided against it.
	Director string
	Family   int // movies of one family have confusable titles
}

// Universe is the seeded set of movies every source draws from.
type Universe struct {
	Movies []Movie
}

// Record is the ground truth of one <movie> element of a source.
type Record struct {
	Movie   int    // index into Universe.Movies
	Title   string // as written (may carry a typo)
	Year    string // as written ("" when missing, may be text)
	Overlap bool   // an earlier source of the sequence holds this movie too
}

// Source is one generated catalog.
type Source struct {
	XML     string
	Records []Record
}

var genres = []string{"Drama", "Comedy", "Thriller", "Horror", "Western", "Romance",
	"Crime", "Adventure", "Mystery", "Documentary", "Animation", "Musical"}

var onsets = []string{"b", "br", "c", "d", "dr", "f", "g", "gl", "h", "j", "k", "l", "m", "n", "p", "pr", "qu", "r", "s", "st", "t", "tr", "v", "w", "z"}
var vowels = []string{"a", "e", "i", "o", "u", "ai", "ea", "io", "ou"}
var codas = []string{"", "", "l", "n", "r", "s", "th", "x", "nd", "rk"}

// word coins a pronounceable word of two or three syllables.
func word(rng *rand.Rand) string {
	var b strings.Builder
	for i, n := 0, 2+rng.Intn(2); i < n; i++ {
		b.WriteString(onsets[rng.Intn(len(onsets))])
		b.WriteString(vowels[rng.Intn(len(vowels))])
		if i == n-1 {
			b.WriteString(codas[rng.Intn(len(codas))])
		}
	}
	s := b.String()
	return strings.ToUpper(s[:1]) + s[1:]
}

// editDistance is the unit-cost Levenshtein distance over bytes (the
// vocabulary is ASCII).
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			c := prev[j-1]
			if a[i-1] != b[j-1] {
				c++
			}
			cur[j] = min(c, prev[j]+1, cur[j-1]+1)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// similar reports whether two base titles are close enough that a typo
// could push them over a 0.55 edit-similarity threshold.
func similar(a, b string) bool {
	a, b = strings.ToLower(a), strings.ToLower(b)
	return float64(editDistance(a, b)) < 0.58*float64(max(len(a), len(b)))
}

// familySizes cycles so that the universe has a fixed mix of stand-alone
// movies and franchises of two to four confusable titles.
var familySizes = []int{1, 2, 1, 3, 1, 2, 1, 4}

var sequelSuffix = []string{"", " II", " III", " Returns"}

// NewUniverse builds n movies. Titles of different families are mutually
// dissimilar (rejection-sampled), titles within a family differ by a
// sequel suffix, and sequels are two to five years apart — so with both
// years present the year rule separates a family, and with one missing it
// cannot.
func NewUniverse(seed int64, n int) *Universe {
	rng := rand.New(rand.NewSource(seed))
	people := make([]string, 160)
	for i := range people {
		people[i] = word(rng) + " " + word(rng)
	}
	u := &Universe{}
	var bases []string
	for fam := 0; len(u.Movies) < n; fam++ {
		var base string
	retry:
		for {
			base = word(rng) + " " + word(rng)
			for _, b := range bases {
				if similar(base, b) {
					continue retry
				}
			}
			break
		}
		bases = append(bases, base)
		year := 1950 + rng.Intn(60)
		for k := 0; k < familySizes[fam%len(familySizes)] && len(u.Movies) < n; k++ {
			m := Movie{Title: base + sequelSuffix[k], Year: year, Family: fam}
			year += 2 + rng.Intn(4)
			g := rng.Intn(len(genres))
			for j, ng := 0, 1+rng.Intn(3); j < ng; j++ {
				m.Genres = append(m.Genres, genres[(g+j*5)%len(genres)])
			}
			m.Director = people[rng.Intn(len(people))]
			u.Movies = append(u.Movies, m)
		}
	}
	return u
}

// Kind selects the defects a sequence carries.
type Kind int

const (
	Clean Kind = iota
	Messy
)

func (k Kind) String() string {
	if k == Messy {
		return "messy"
	}
	return "clean"
}

// Per-source defect counts of a messy source, per 30 records. They are
// counts and not rates so that every source of a size carries the same
// number of each defect and only their placement depends on the seed.
const (
	messyDup      = 2 // records repeated within the source
	messyNoYear   = 4
	messyTextYear = 3
	messyTypo     = 3
)

// Sequence generates count sources of size records each, meant to be
// integrated one after another into one database. Each source after the
// first shares movies with its predecessors and takes the rest fresh from
// the universe (wrapping round when it is exhausted). A messy source
// takes a third of its movies from any earlier source. A clean source
// takes a fifth from the movies its immediate predecessor introduced:
// those exist once, in the other director convention, so each is certain
// to leave an undecided pair and an uncertain director answer behind —
// which the feedback loop needs.
func (u *Universe) Sequence(seed int64, kind Kind, count, size int) []Source {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(len(u.Movies))
	next := 0
	var used, prevFresh []int
	out := make([]Source, 0, count)
	for s := 0; s < count; s++ {
		distinct := size
		if kind == Messy {
			distinct -= messyDup * size / 30
		}
		overlap := 0
		if len(used) > 0 {
			overlap = distinct / 5
			if kind == Messy {
				overlap = distinct / 3
			}
		}
		from := used
		if kind == Clean {
			from = prevFresh
		}
		picked := make([]int, 0, size)
		seen := map[int]bool{}
		for len(picked) < overlap {
			m := from[rng.Intn(len(from))]
			if !seen[m] {
				seen[m] = true
				picked = append(picked, m)
			}
		}
		prevFresh = nil
		for len(picked) < distinct {
			m := order[next%len(order)]
			next++
			if !seen[m] {
				seen[m] = true
				picked = append(picked, m)
				used = append(used, m)
				prevFresh = append(prevFresh, m)
			}
		}
		shared := make(map[int]bool, overlap)
		for _, m := range picked[:overlap] {
			shared[m] = true
		}
		// Duplicated records: distinct originals, each repeated once. The
		// copy is marked by a negative index and rendered without genres,
		// because two deep-equal siblings in one source would later make a
		// third copy must-match both, which integration rejects.
		for _, i := range rng.Perm(distinct)[:size-distinct] {
			picked = append(picked, -1-picked[i])
		}
		rng.Shuffle(len(picked), func(i, j int) { picked[i], picked[j] = picked[j], picked[i] })
		out = append(out, u.render(rng, kind, s, picked, shared))
	}
	return out
}

// render writes one source. Source s uses "First Last" when s is even and
// "Last, First" when odd.
func (u *Universe) render(rng *rand.Rand, kind Kind, s int, picked []int, shared map[int]bool) Source {
	n := len(picked)
	defect := make([]byte, n) // 'y' missing year, 't' text year, 'p' typo
	if kind == Messy {
		slots := rng.Perm(n)
		i := 0
		for _, d := range []struct {
			mark  byte
			count int
		}{{'y', messyNoYear}, {'t', messyTextYear}, {'p', messyTypo}} {
			for k := 0; k < d.count*n/30; k++ {
				defect[slots[i]] = d.mark
				i++
			}
		}
	}
	var b strings.Builder
	b.WriteString("<catalog>\n")
	src := Source{Records: make([]Record, n)}
	for i, mi := range picked {
		dup := mi < 0
		if dup {
			mi = -1 - mi
		}
		m := u.Movies[mi]
		if dup {
			m.Genres = nil
		}
		title, year := m.Title, fmt.Sprint(m.Year)
		switch defect[i] {
		case 'y':
			year = ""
		case 't':
			if rng.Intn(2) == 0 {
				year = "c. " + year
			} else {
				year = year[2:]
			}
		case 'p':
			title = typo(rng, title)
		}
		src.Records[i] = Record{Movie: mi, Title: title, Year: year, Overlap: shared[mi]}
		b.WriteString("  <movie><title>" + title + "</title>")
		if year != "" {
			b.WriteString("<year>" + year + "</year>")
		}
		for _, g := range m.Genres {
			b.WriteString("<genre>" + g + "</genre>")
		}
		d := m.Director
		if s%2 == 1 {
			first, last, _ := strings.Cut(d, " ")
			d = last + ", " + first
		}
		b.WriteString("<director>" + d + "</director>")
		b.WriteString("</movie>\n")
	}
	b.WriteString("</catalog>\n")
	src.XML = b.String()
	return src
}

// typo changes one letter of the title's first word: a substitution, a
// deletion or a transposition.
func typo(rng *rand.Rand, title string) string {
	first, rest, _ := strings.Cut(title, " ")
	i := 1 + rng.Intn(len(first)-2)
	switch rng.Intn(3) {
	case 0:
		c := byte('a' + rng.Intn(26))
		if c == first[i] {
			c = 'a' + (c-'a'+1)%26
		}
		first = first[:i] + string(c) + first[i+1:]
	case 1:
		first = first[:i] + first[i+1:]
	default:
		if first[i] == first[i+1] {
			first = first[:i] + first[i+1:]
		} else {
			first = first[:i] + string(first[i+1]) + string(first[i]) + first[i+2:]
		}
	}
	return first + " " + rest
}
