package xmlcodec_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/integrate"
	"repro/internal/oracle"
	"repro/internal/pxml"
	"repro/internal/pxmltest"
	"repro/internal/xmlcodec"
)

// TestScannerMatchesReference: on every input the byte scanner takes, it
// gives what encoding/xml's tokenizer alone gives — a pxml.Equal tree with
// the same digest — and whatever it declines Decode hands to that reference
// path. The inputs are the fuzz seeds, datagen sources, a messy source,
// random probabilistic documents and integrated catalogs written as the
// server's /export writes them (indented) and unindented, plus seeded
// mutations of all of them: bytes replaced, inserted, deleted or cut off,
// and snippets (references, comments, markers, a carriage return, a prefix,
// multi-byte and illegal characters) spliced in.
func TestScannerMatchesReference(t *testing.T) {
	bases := decodeSeeds(t)
	encode := func(tr *pxml.Tree) {
		for _, indent := range []string{"", "  "} {
			for _, keep := range []bool{false, true} {
				src, err := xmlcodec.EncodeString(tr, xmlcodec.EncodeOptions{Indent: indent, KeepTrivial: keep})
				if err != nil {
					t.Fatal(err)
				}
				bases = append(bases, src)
			}
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		pair := datagen.Typical(4, 4, 2, seed)
		encode(pair.A.Tree)
		merged, _, err := integrate.Integrate(pair.A.Tree, pair.B.Tree, integrate.Config{
			Oracle: oracle.MovieOracle(oracle.SetGenreTitle), Schema: datagen.MovieDTD()})
		if err != nil {
			t.Fatal(err)
		}
		encode(merged)
	}
	encode(datagen.Confusing(3, 1).B.Tree)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 12; i++ {
		cfg := pxmltest.DefaultGenConfig()
		encode(pxmltest.RandomTree(rng, cfg))
	}
	bases = append(bases, messySource())

	scanned := 0
	for _, src := range bases {
		if check(t, src) {
			scanned++
		}
	}
	if scanned < len(bases)*2/3 {
		t.Fatalf("the scanner took %d of %d unmutated inputs", scanned, len(bases))
	}
	const mutations = 100000
	mutatedScanned := 0
	for i := 0; i < mutations; i++ {
		if check(t, mutate(rng, bases[rng.Intn(len(bases))])) {
			mutatedScanned++
		}
	}
	t.Logf("fast path on %d of %d inputs and %d of %d mutations, 0 mismatches",
		scanned, len(bases), mutatedScanned, mutations)
}

// check compares the scanner with encoding/xml on src and reports whether
// the scanner took it.
func check(t *testing.T, src string) bool {
	tr, ok := xmlcodec.Scan(src)
	if !ok {
		return false
	}
	sameAsReference(t, src, tr, nil)
	return true
}

var snippets = []string{
	"&amp;", "&lt;", "&#65;", "&#x42;", "&#xD800;", "&#0;", "&#x10FFFF;", "&bogus;", "&amp", "&#;",
	"<!-- c -->", "<!---->", "<!-- a -- b -->", "<?pi x?>", `<?xml version="1.0"?>`, `<?xml version="1.1"?>`,
	"<![CDATA[x]]>", "]]>", "<!DOCTYPE a>", "<b/>", "</b>", "<_prob>", "</_prob>", `<_poss p="0.5">`,
	`<_poss p="1">`, "</_poss>", ` x="1"`, ` xmlns="u"`, "p:", ":", "\r", "\r\n", "\t", "\n", " ",
	" ", "\u0085", "é", "\xff", "\xc3", "\x00", "\x7f", "￾", "'", `"`, "=", "/", "<", ">",
}

// mutate applies one to three random edits to src.
func mutate(rng *rand.Rand, src string) string {
	b := []byte(src)
	for n := 1 + rng.Intn(3); n > 0; n-- {
		i := 0
		if len(b) > 0 {
			i = rng.Intn(len(b))
		}
		if rng.Intn(2) == 0 {
			// Most edits land at the start of a text run, where a document
			// mostly stays well-formed, so the scanner's accepting side is
			// exercised as well as its declining one.
			if j := bytes.IndexByte(b[i:], '>'); j >= 0 {
				i += j + 1
			}
		}
		switch rng.Intn(6) {
		case 0: // replace a byte
			if i < len(b) {
				b[i] = byte(rng.Intn(256))
			}
		case 1: // insert a byte
			b = append(b[:i], append([]byte{byte(rng.Intn(256))}, b[i:]...)...)
		case 2: // delete a short run
			if i < len(b) {
				b = append(b[:i], b[min(len(b), i+1+rng.Intn(4)):]...)
			}
		case 3: // cut off the tail
			b = b[:i]
		default: // splice in a snippet
			s := snippets[rng.Intn(len(snippets))]
			b = append(b[:i], append([]byte(s), b[i:]...)...)
		}
	}
	return string(b)
}
