package dtd_test

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dtd"
	"repro/internal/pxml"
	"repro/internal/pxmltest"
	"repro/internal/xmlcodec"
)

const movieDTD = `
	<!-- movie catalog -->
	<!ELEMENT catalog (movie*)>
	<!ELEMENT movie (title, year?, genre*, director+)>
	<!ELEMENT title (#PCDATA)>
	<!ELEMENT year (#PCDATA)>
	<!ELEMENT genre (#PCDATA)>
	<!ELEMENT director (#PCDATA)>
	<!ELEMENT meta EMPTY>
	<!ELEMENT blob ANY>
`

func TestParseAndString(t *testing.T) {
	s, err := dtd.ParseString(movieDTD)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	out := s.String()
	for _, want := range []string{
		"<!ELEMENT movie (title, year?, genre*, director+)>",
		"<!ELEMENT title (#PCDATA)>",
		"<!ELEMENT meta EMPTY>",
		"<!ELEMENT blob ANY>",
		"<!ELEMENT catalog (movie*)>",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("String() missing %q:\n%s", want, out)
		}
	}
	// Round trip.
	s2, err := dtd.ParseString(out)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if s2.String() != out {
		t.Fatalf("round trip changed schema:\n%s\nvs\n%s", out, s2.String())
	}
}

func TestOccursQueries(t *testing.T) {
	s := dtd.MustParse(movieDTD)
	cases := []struct {
		parent, child string
		min, max      int
	}{
		{"movie", "title", 1, 1},
		{"movie", "year", 0, 1},
		{"movie", "genre", 0, dtd.Unbounded},
		{"movie", "director", 1, dtd.Unbounded},
		{"movie", "bogus", 0, 0},
		{"catalog", "movie", 0, dtd.Unbounded},
		{"undeclared", "anything", 0, dtd.Unbounded},
		{"blob", "anything", 0, dtd.Unbounded},
		{"title", "sub", 0, 0},
		{"meta", "sub", 0, 0},
	}
	for _, tc := range cases {
		if got := s.MaxOccurs(tc.parent, tc.child); got != tc.max {
			t.Errorf("MaxOccurs(%s,%s) = %d, want %d", tc.parent, tc.child, got, tc.max)
		}
		if got := s.MinOccurs(tc.parent, tc.child); got != tc.min {
			t.Errorf("MinOccurs(%s,%s) = %d, want %d", tc.parent, tc.child, got, tc.min)
		}
	}
}

func TestCheckCounts(t *testing.T) {
	s := dtd.MustParse(movieDTD)
	ok := map[string]int{"title": 1, "genre": 3, "director": 2}
	if err := s.CheckCounts("movie", ok, true); err != nil {
		t.Fatalf("valid counts rejected: %v", err)
	}
	if err := s.CheckCounts("movie", map[string]int{"title": 2, "director": 1}, false); err == nil {
		t.Fatalf("two titles should violate")
	}
	if err := s.CheckCounts("movie", map[string]int{"title": 1, "year": 2, "director": 1}, false); err == nil {
		t.Fatalf("two years should violate")
	}
	// Min enforcement only with requireMin.
	missing := map[string]int{"title": 1}
	if err := s.CheckCounts("movie", missing, false); err != nil {
		t.Fatalf("missing director should pass without requireMin: %v", err)
	}
	if err := s.CheckCounts("movie", missing, true); err == nil {
		t.Fatalf("missing director should fail with requireMin")
	}
	// Unknown child tags.
	if err := s.CheckCounts("movie", map[string]int{"title": 1, "director": 1, "oops": 1}, false); err == nil {
		t.Fatalf("undeclared child should violate")
	}
	// PCDATA and EMPTY forbid children.
	if err := s.CheckCounts("title", map[string]int{"x": 1}, false); err == nil {
		t.Fatalf("PCDATA with children should violate")
	}
	// ANY and undeclared allow everything.
	if err := s.CheckCounts("blob", map[string]int{"x": 99}, false); err != nil {
		t.Fatalf("ANY rejected: %v", err)
	}
	if err := s.CheckCounts("mystery", map[string]int{"x": 99}, false); err != nil {
		t.Fatalf("undeclared rejected: %v", err)
	}
}

func TestCountsErrorMessage(t *testing.T) {
	s := dtd.MustParse(movieDTD)
	err := s.CheckCounts("movie", map[string]int{"title": 3, "director": 1}, false)
	ce, ok := err.(*dtd.CountsError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if ce.Parent != "movie" || ce.Child != "title" || ce.Count != 3 || ce.Max != 1 {
		t.Fatalf("CountsError = %+v", ce)
	}
	if !strings.Contains(ce.Error(), "movie") || !strings.Contains(ce.Error(), "title") {
		t.Fatalf("message = %q", ce.Error())
	}
	err = s.CheckCounts("catalog", map[string]int{"movie": 1000000}, false)
	if err != nil {
		t.Fatalf("unbounded field rejected: %v", err)
	}
}

func TestValidateElement(t *testing.T) {
	s := dtd.MustParse(movieDTD)
	good, err := xmlcodec.DecodeString(
		`<catalog><movie><title>Jaws</title><year>1975</year><genre>Horror</genre><director>Spielberg</director></movie></catalog>`)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := s.ValidateElement(good.RootElements()[0]); err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
	bad, _ := xmlcodec.DecodeString(
		`<catalog><movie><title>Jaws</title><title>Jaws 2</title><director>S</director></movie></catalog>`)
	if err := s.ValidateElement(bad.RootElements()[0]); err == nil {
		t.Fatalf("two titles should be rejected")
	}
	noDirector, _ := xmlcodec.DecodeString(`<catalog><movie><title>Jaws</title></movie></catalog>`)
	if err := s.ValidateElement(noDirector.RootElements()[0]); err == nil {
		t.Fatalf("missing director should be rejected")
	}
	textInSeq, _ := xmlcodec.DecodeString(`<movie>stray<title>Jaws</title><director>S</director></movie>`)
	if err := s.ValidateElement(textInSeq.RootElements()[0]); err == nil {
		t.Fatalf("text in sequence element should be rejected")
	}
	if err := s.ValidateElement(pxml.NewPoss(1)); err == nil {
		t.Fatalf("non-element should be rejected")
	}
	uncertain := pxmltest.Fig2Tree().RootElements()[0]
	if err := s.ValidateElement(uncertain); err == nil {
		t.Fatalf("uncertain element should be rejected by ValidateElement")
	}
}

func TestValidateTree(t *testing.T) {
	s := dtd.MustParse(`
		<!ELEMENT addressbook (person*)>
		<!ELEMENT person (nm, tel?)>
		<!ELEMENT nm (#PCDATA)>
		<!ELEMENT tel (#PCDATA)>
	`)
	if err := s.ValidateTree(pxmltest.Fig2Tree()); err != nil {
		t.Fatalf("figure-2 tree should satisfy person(nm, tel?): %v", err)
	}
	// A person with two certain phones violates in every world.
	bad := pxml.CertainTree(pxml.NewElem("addressbook", "",
		pxml.Certain(pxml.NewElem("person", "",
			pxml.Certain(pxml.NewLeaf("nm", "John")),
			pxml.Certain(pxml.NewLeaf("tel", "1")),
			pxml.Certain(pxml.NewLeaf("tel", "2")),
		))))
	if err := s.ValidateTree(bad); err == nil {
		t.Fatalf("two certain phones should be rejected")
	}
	// Two phones in mutually exclusive alternatives are fine.
	okTree := pxml.CertainTree(pxml.NewElem("addressbook", "",
		pxml.Certain(pxml.NewElem("person", "",
			pxml.Certain(pxml.NewLeaf("nm", "John")),
			pxml.NewProb(
				pxml.NewPoss(0.5, pxml.NewLeaf("tel", "1")),
				pxml.NewPoss(0.5, pxml.NewLeaf("tel", "2")),
			),
		))))
	if err := s.ValidateTree(okTree); err != nil {
		t.Fatalf("exclusive phones rejected: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, in, want string }{
		{"garbage", `<!ATTLIST a>`, "expected <!ELEMENT"},
		{"unterminated", `<!ELEMENT a (b)`, "unterminated"},
		{"unterminated comment", `<!-- hi`, "unterminated comment"},
		{"no model", `<!ELEMENT a>`, "needs a name"},
		{"bad name", `<!ELEMENT 1a (b)>`, "invalid element name"},
		{"bad model", `<!ELEMENT a b>`, "must be parenthesized"},
		{"empty model", `<!ELEMENT a ()>`, "empty content model"},
		{"empty field", `<!ELEMENT a (b,,c)>`, "empty field"},
		{"alternation", `<!ELEMENT a (b|c)>`, "not supported"},
		{"group", `<!ELEMENT a ((b,c))>`, "not supported"},
		{"bad field", `<!ELEMENT a (b, 2c)>`, "invalid field name"},
		{"dup field", `<!ELEMENT a (b, b)>`, "repeated"},
		{"dup element", `<!ELEMENT a (b)> <!ELEMENT a (c)>`, "duplicate declaration"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := dtd.ParseString(tc.in)
			if err == nil {
				t.Fatalf("expected error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q missing %q", err, tc.want)
			}
		})
	}
}

func TestParseErrorLineNumbers(t *testing.T) {
	_, err := dtd.ParseString("<!ELEMENT a (b)>\n\n<!BOGUS>")
	pe, ok := err.(*dtd.ParseError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.Line != 3 {
		t.Fatalf("line = %d, want 3", pe.Line)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	dtd.MustParse("<!NOPE>")
}

func TestBuilderAPI(t *testing.T) {
	s := dtd.NewSchema().
		Declare("person", dtd.Seq(dtd.Req("nm"), dtd.Opt("tel"), dtd.Many("email"), dtd.Some("addr"))).
		Declare("nm", dtd.PCDATA())
	if s.MaxOccurs("person", "tel") != 1 || s.MinOccurs("person", "addr") != 1 {
		t.Fatalf("builder cardinalities wrong")
	}
	m := s.Model("person")
	if m == nil || m.Kind != dtd.ModelSeq || len(m.Fields) != 4 {
		t.Fatalf("model = %+v", m)
	}
	if _, ok := m.Field("nope"); ok {
		t.Fatalf("unknown field found")
	}
	if f, ok := m.Field("email"); !ok || f.Max != dtd.Unbounded {
		t.Fatalf("email field = %+v %v", f, ok)
	}
}

// FuzzDTDParse: ParseString never panics, and any text it accepts
// round-trips through Schema.String(), the form a snapshot header and a
// load record carry the schema in and a follower parses back: the
// rendering reparses, to the same rendering.
func FuzzDTDParse(f *testing.F) {
	f.Add(movieDTD)
	f.Add("<!ELEMENT addressbook (person*)>\n<!ELEMENT person (nm, tel?)>\n<!ELEMENT nm (#PCDATA)>\n<!ELEMENT tel (#PCDATA)>")
	f.Add(`<!ELEMENT a (b, 2c)>`)
	f.Add(`<!-- c --><!ELEMENT a (b+, c?)> <!ELEMENT b EMPTY>`)
	f.Fuzz(func(t *testing.T, src string) {
		s, err := dtd.ParseString(src)
		if err != nil {
			return
		}
		out := s.String()
		s2, err := dtd.ParseString(out)
		if err != nil {
			t.Fatalf("String() of an accepted schema does not reparse: %v\n%s", err, out)
		}
		if got := s2.String(); got != out {
			t.Fatalf("round trip changed the schema:\n%s\nvs\n%s", out, got)
		}
	})
}

// TestParseFile: a DTD file parses like its text, and a missing file
// reports the file-system error.
func TestParseFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "movie.dtd")
	if err := os.WriteFile(path, []byte(movieDTD), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := dtd.ParseFile(path)
	if err != nil {
		t.Fatalf("ParseFile: %v", err)
	}
	if want := dtd.MustParse(movieDTD).String(); s.String() != want {
		t.Fatalf("ParseFile = %q, want %q", s.String(), want)
	}
	if _, err := dtd.ParseFile(filepath.Join(t.TempDir(), "missing.dtd")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("ParseFile(missing) error = %v, want fs.ErrNotExist", err)
	}
}
