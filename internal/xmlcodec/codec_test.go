package xmlcodec_test

import (
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
	"repro/internal/pxml"
	"repro/internal/pxmltest"
	"repro/internal/xmlcodec"
)

func TestDecodePlainXML(t *testing.T) {
	tr, err := xmlcodec.DecodeString(`
		<addressbook>
			<person><nm>John</nm><tel>1111</tel></person>
			<person><nm>Mary</nm><tel>3333</tel></person>
		</addressbook>`)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("decoded tree invalid: %v", err)
	}
	if !tr.IsCertain() {
		t.Fatalf("plain XML should decode to a certain tree")
	}
	if tr.WorldCount().Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("world count = %s", tr.WorldCount())
	}
	book := tr.RootElements()[0]
	if book.Tag() != "addressbook" {
		t.Fatalf("root tag = %q", book.Tag())
	}
	persons := pxml.ElementChildren(book)
	if len(persons) != 2 {
		t.Fatalf("persons = %d", len(persons))
	}
	if pxml.CertainText(persons[0], "nm") != "John" || pxml.CertainText(persons[1], "tel") != "3333" {
		t.Fatalf("person contents wrong:\n%s", tr)
	}
}

func TestDecodeTextAndEntities(t *testing.T) {
	tr, err := xmlcodec.DecodeString(`<movie><title>Jaws &amp; Jaws 2 &lt;uncut&gt;</title></movie>`)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	title := pxml.CertainText(tr.RootElements()[0], "title")
	if title != "Jaws & Jaws 2 <uncut>" {
		t.Fatalf("title = %q", title)
	}
}

func TestDecodeAttributesBecomeAttrElements(t *testing.T) {
	tr, err := xmlcodec.DecodeString(`<movie id="m1" lang="en"><title>Jaws</title></movie>`)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	movie := tr.RootElements()[0]
	if got := pxml.CertainText(movie, "@id"); got != "m1" {
		t.Fatalf("@id = %q", got)
	}
	if got := pxml.CertainText(movie, "@lang"); got != "en" {
		t.Fatalf("@lang = %q", got)
	}
}

func TestDecodeProbabilisticMarkers(t *testing.T) {
	tr, err := xmlcodec.DecodeString(`
		<person>
			<nm>John</nm>
			<_prob>
				<_poss p="0.5"><tel>1111</tel></_poss>
				<_poss p="0.5"><tel>2222</tel></_poss>
			</_prob>
		</person>`)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if tr.IsCertain() {
		t.Fatalf("tree with genuine choice point reported certain")
	}
	if tr.WorldCount().Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("world count = %s, want 2", tr.WorldCount())
	}
}

func TestDecodeEmptyAlternative(t *testing.T) {
	tr, err := xmlcodec.DecodeString(`
		<person>
			<_prob>
				<_poss p="0.8"><tel>1111</tel></_poss>
				<_poss p="0.2"/>
			</_prob>
		</person>`)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if tr.WorldCount().Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("world count = %s, want 2 (tel present / absent)", tr.WorldCount())
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"empty", ``, "empty document"},
		{"malformed", `<a><b></a>`, "xmlcodec"},
		{"root marker", `<_prob/>`, "document element may not be"},
		{"poss outside prob", `<a><_poss p="1"/></a>`, "outside"},
		{"prob with text", `<a><_prob>hello</_prob></a>`, "text inside"},
		{"prob with elem", `<a><_prob><b/></_prob></a>`, "may only contain"},
		{"prob empty", `<a><_prob></_prob></a>`, "without alternatives"},
		{"poss missing p", `<a><_prob><_poss/></_prob></a>`, "requires attribute p"},
		{"poss bad p", `<a><_prob><_poss p="oops"/></_prob></a>`, "oops"},
		{"poss zero p", `<a><_prob><_poss p="0"/></_prob></a>`, "out of range"},
		{"poss big p", `<a><_prob><_poss p="1.5"/></_prob></a>`, "out of range"},
		{"poss NaN p", `<a><_prob><_poss p="NaN"/></_prob></a>`, "out of range"},
		{"poss extra attr", `<a><_prob><_poss p="1" q="2"/></_prob></a>`, "not allowed"},
		{"prob attr", `<a><_prob x="1"><_poss p="1"/></_prob></a>`, "takes no attributes"},
		{"poss nested poss", `<a><_prob><_poss p="1"><_poss p="1"/></_poss></_prob></a>`, "may not directly contain"},
		{"probs sum wrong", `<a><_prob><_poss p="0.5"/><_poss p="0.1"/></_prob></a>`, "sum"},
		{"poss text", `<a><_prob><_poss p="1">txt</_poss></_prob></a>`, "text inside"},
		{"two roots", `<a/><b/>`, "xmlcodec"},
		{"text after root", `<a/>extra`, "xmlcodec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := xmlcodec.DecodeString(tc.in)
			if err == nil {
				t.Fatalf("expected error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q missing %q", err.Error(), tc.want)
			}
		})
	}
}

func TestEncodeCertainProducesPlainXML(t *testing.T) {
	tr, err := xmlcodec.DecodeString(`<addressbook><person><nm>John</nm></person></addressbook>`)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	out, err := xmlcodec.EncodeString(tr, xmlcodec.EncodeOptions{})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if strings.Contains(out, xmlcodec.ProbTag) {
		t.Fatalf("certain document should not contain markers: %s", out)
	}
	if !strings.Contains(out, "<nm>John</nm>") {
		t.Fatalf("output = %s", out)
	}
}

func TestEncodeEscapesText(t *testing.T) {
	tr := pxml.CertainTree(pxml.NewElem("m", "", pxml.Certain(pxml.NewLeaf("t", `a<b>&"c`))))
	out, err := xmlcodec.EncodeString(tr, xmlcodec.EncodeOptions{})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if strings.Contains(out, "<b>") {
		t.Fatalf("unescaped text in output: %s", out)
	}
	back, err := xmlcodec.DecodeString(out)
	if err != nil {
		t.Fatalf("re-decode: %v", err)
	}
	if got := pxml.CertainText(back.RootElements()[0], "t"); got != `a<b>&"c` {
		t.Fatalf("round-tripped text = %q", got)
	}
}

func TestEncodeAttrElementsBecomeAttributes(t *testing.T) {
	tr, err := xmlcodec.DecodeString(`<movie id="m1"><title>Jaws</title></movie>`)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	out, err := xmlcodec.EncodeString(tr, xmlcodec.EncodeOptions{})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !strings.Contains(out, `id="m1"`) {
		t.Fatalf("attribute not restored: %s", out)
	}
}

func TestEncodeFig2ContainsMarkers(t *testing.T) {
	out, err := xmlcodec.EncodeString(pxmltest.Fig2Tree(), xmlcodec.EncodeOptions{Indent: "  "})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	for _, want := range []string{"<_prob>", `<_poss p="0.6">`, `<_poss p="0.4">`, `p="0.5"`, "<tel>1111</tel>"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestEncodeRejectsMultiRootChoice(t *testing.T) {
	root := pxml.NewProb(
		pxml.NewPoss(0.5, pxml.NewLeaf("a", "")),
		pxml.NewPoss(0.5, pxml.NewLeaf("b", "")),
	)
	tr := pxml.MustTree(root)
	if _, err := xmlcodec.EncodeString(tr, xmlcodec.EncodeOptions{}); err == nil {
		t.Fatalf("expected error for uncertain document element")
	}
}

func TestRoundTripExactWithKeepTrivial(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cfg := pxmltest.DefaultGenConfig()
	cfg.AllowEmptyAlt = false // empty leaves re-decode as leaf without text distinction
	for i := 0; i < 40; i++ {
		tr := pxmltest.RandomTree(rng, cfg)
		out, err := xmlcodec.EncodeString(tr, xmlcodec.EncodeOptions{KeepTrivial: true, Indent: " "})
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		back, err := xmlcodec.DecodeString(out)
		if err != nil {
			t.Fatalf("Decode round trip %d: %v\n%s", i, err, out)
		}
		if !pxml.Equal(tr.Root(), back.Root()) {
			t.Fatalf("round trip %d not exact:\nwant\n%s\ngot\n%s\nxml\n%s", i, tr, back, out)
		}
	}
}

func TestRoundTripCompactPreservesSemantics(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := pxmltest.RandomTree(rng, pxmltest.DefaultGenConfig())
		out, err := xmlcodec.EncodeString(tr, xmlcodec.EncodeOptions{})
		if err != nil {
			return false
		}
		back, err := xmlcodec.DecodeString(out)
		if err != nil {
			return false
		}
		if back.Validate() != nil {
			return false
		}
		// Compact form may regroup trivial wrappers, but world count and
		// deep content must be preserved.
		if tr.WorldCount().Cmp(back.WorldCount()) != 0 {
			return false
		}
		return pxml.DeepEqualElems(tr.RootElements()[0], back.RootElements()[0])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeIndentIsStable(t *testing.T) {
	tr := pxmltest.Fig2Tree()
	a, err := xmlcodec.EncodeString(tr, xmlcodec.EncodeOptions{Indent: "  ", ProbDigits: 4})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	b, err := xmlcodec.EncodeString(tr, xmlcodec.EncodeOptions{Indent: "  ", ProbDigits: 4})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if a != b {
		t.Fatalf("encoding not deterministic")
	}
	if !strings.Contains(a, "\n") {
		t.Fatalf("indented output should be multi-line")
	}
}

// messySource renders 30 datagen movies the way the sloppy sources of the
// ingest workload are written: one record per line, two records repeated
// (the copy without genres), four without a year, three with a textual year
// and three with a misspelt title.
func messySource() string {
	rng := rand.New(rand.NewSource(1))
	var pool []datagen.Movie
	for _, p := range []datagen.Pair{datagen.Confusing(18, 1), datagen.Typical(10, 10, 4, 1)} {
		pool = append(pool, p.A.Movies...)
		pool = append(pool, p.B.Movies...)
	}
	movies := make([]datagen.Movie, 0, 30)
	for _, i := range rng.Perm(len(pool))[:28] {
		movies = append(movies, pool[i])
	}
	for _, i := range []int{3, 17} {
		m := movies[i]
		m.Genres = nil
		movies = append(movies, m)
	}
	var b strings.Builder
	b.WriteString("<catalog>\n")
	for i, m := range movies {
		title, year := m.Title, fmt.Sprint(m.Year)
		switch {
		case i < 4:
			year = ""
		case i < 6:
			year = "c. " + year
		case i < 7:
			year = year[2:]
		case i < 10:
			r := []rune(title)
			r[rng.Intn(len(r))] = rune('a' + rng.Intn(26))
			title = string(r)
		}
		b.WriteString("  <movie><title>" + title + "</title>")
		if year != "" {
			b.WriteString("<year>" + year + "</year>")
		}
		for _, g := range m.Genres {
			b.WriteString("<genre>" + g + "</genre>")
		}
		for _, d := range m.Directors {
			b.WriteString("<director>" + datagen.FormatDirector(d, datagen.ConvIMDB) + "</director>")
		}
		b.WriteString("</movie>\n")
	}
	b.WriteString("</catalog>\n")
	return b.String()
}

// TestDecodeSharesMaximally: the decoder interns each node before it
// allocates it, and what it builds is as shared as interning the result
// again makes it — on a messy source, whose repeated records and field
// values are the sharing.
func TestDecodeSharesMaximally(t *testing.T) {
	tr, err := xmlcodec.DecodeString(messySource())
	if err != nil {
		t.Fatal(err)
	}
	got, want := tr.PhysicalNodeCount(), pxml.InternTree(tr).PhysicalNodeCount()
	if got != want || got >= tr.NodeCount() {
		t.Fatalf("%d physical nodes of %d logical, %d after interning again", got, tr.NodeCount(), want)
	}
}
