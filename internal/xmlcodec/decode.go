// Package xmlcodec converts between textual XML and the probabilistic XML
// model of package pxml. It replaces the shredding/serialization role that
// MonetDB/XQuery plays for the original IMPrECISE prototype.
//
// Plain XML documents parse to certain probabilistic trees. Probabilistic
// documents are written — and read back — using two marker elements:
//
//	<_prob> ... </_prob>            a choice point
//	<_poss p="0.4"> ... </_poss>    one alternative with its probability
//
// Attributes of regular elements are represented as child leaf elements
// whose tag is the attribute name prefixed with "@" (the model itself has
// no attributes; this keeps attribute data queryable like any element).
package xmlcodec

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"

	"repro/internal/pxml"
)

// Marker element names used in the textual representation of probabilistic
// documents.
const (
	ProbTag = "_prob"
	PossTag = "_poss"
	// AttrPrefix prefixes element tags that represent XML attributes.
	AttrPrefix = "@"
)

// SyntaxError reports a structural problem in the probabilistic markup.
type SyntaxError struct {
	Msg string
}

func (e *SyntaxError) Error() string { return "xmlcodec: " + e.Msg }

func syntaxErrf(format string, args ...any) error {
	return &SyntaxError{Msg: fmt.Sprintf(format, args...)}
}

// MaxDepth caps the nesting of regular elements at the depth encoding/xml's
// own Unmarshal accepts. Decode refuses deeper input with a SyntaxError,
// because the walks over a decoded tree (its summary, Encode) recurse once
// per layer. Markers do not count: every element they wrap counts instead,
// and a document accepted once still decodes after Encode wraps each of its
// elements in a <_prob><_poss> pair (KeepTrivial).
const MaxDepth = 10000

// Decode parses an XML document — plain or with probabilistic markers —
// into a probabilistic tree. The document element becomes the single
// certain root element of the tree.
//
// Decode reads r to its end into one buffer and hands it to two tokenizers
// in turn, both feeding the same event consumer, which holds the marker
// rules. A byte scanner (scan.go) reads the small language sources and
// exports are written in. Whatever it declines — a DOCTYPE, CDATA, a
// namespace, a carriage return, malformed markup, or input the consumer
// rejects — is decoded again from the start by encoding/xml, which then
// decides, so every error Decode returns comes from that reference path.
func Decode(r io.Reader) (*pxml.Tree, error) {
	bp := readBufs.Get().(*[]byte)
	buf := bytes.NewBuffer((*bp)[:0])
	_, err := buf.ReadFrom(r)
	src := buf.Bytes()
	defer func() {
		// Every string the tree holds was copied out of src, so the buffer
		// can serve the next Decode; a very large one is left to the GC.
		if cap(src) <= maxPooledRead {
			*bp = src
			readBufs.Put(bp)
		}
	}()
	if err != nil {
		return nil, fmt.Errorf("xmlcodec: %w", err)
	}
	if t, ok := scan(src); ok {
		return t, nil
	}
	return decodeReference(src)
}

// DecodeString is Decode over a string.
func DecodeString(s string) (*pxml.Tree, error) {
	return Decode(strings.NewReader(s))
}

// readBufs pools Decode's input buffers; maxPooledRead bounds the size of
// one kept for reuse.
var readBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledRead = 1 << 20

// decodeReference decodes src with encoding/xml's tokenizer.
func decodeReference(src []byte) (*pxml.Tree, error) {
	dec := xml.NewDecoder(bytes.NewReader(src))
	d := newDecoder(len(src))
	var attrs []attr
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return d.finish()
		}
		if err != nil {
			if len(d.open) > 0 {
				return nil, fmt.Errorf("xmlcodec: in <%s>: %w", d.open[len(d.open)-1].tag, err)
			}
			return nil, fmt.Errorf("xmlcodec: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			attrs = attrs[:0]
			for _, a := range t.Attr {
				if a.Name.Local != "xmlns" && a.Name.Space != "xmlns" { // namespace declarations are not data
					attrs = append(attrs, attr{name(a.Name), a.Value})
				}
			}
			err = d.start(name(t.Name), attrs)
		case xml.CharData:
			err = d.chars(t)
		case xml.EndElement:
			err = d.end()
		}
		if err != nil {
			return nil, err
		}
	}
}

func name(n xml.Name) string {
	if n.Space != "" {
		return n.Space + ":" + n.Local
	}
	return n.Local
}

// attr is one attribute of a start tag.
type attr struct{ name, value string }

// decoder is the event consumer both tokenizers feed: the one place the
// marker rules live. Every node goes through b, children first; the
// children and text of the open elements share one stack each, so no
// element allocates a child list or a text buffer of its own.
type decoder struct {
	b     *pxml.Builder
	strs  map[string]string // every tag and text decoded so far, so each is allocated once
	open  []frame           // open elements and markers, innermost last
	depth int               // open regular elements
	kids  []*pxml.Node      // children of the open elements and markers, innermost last
	text  []byte            // text of the open elements, innermost last
	root  *pxml.Node        // the document element, once closed
	tmp   []byte
}

// frame is an open element or marker: kind is KindElem for a regular
// element, KindProb for <_prob> and KindPoss for <_poss>, whose tag is the
// marker's name. kids and text are where its share of the stacks begins.
type frame struct {
	tag        string
	kind       pxml.Kind
	prob       float64
	kids, text int
}

// bytesPerNode is about how many bytes of a catalog-shaped source yield
// one distinct node, which sizes the intern tables up front.
const bytesPerNode = 16

func newDecoder(size int) *decoder {
	hint := min(size/bytesPerNode, 1<<16)
	return &decoder{b: pxml.NewBuilderSize(hint), strs: make(map[string]string, hint/4)}
}

// str returns b as a string, allocating each distinct value once.
func (d *decoder) str(b []byte) string {
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	d.strs[s] = s
	return s
}

// start opens an element or marker. attrs excludes namespace declarations.
func (d *decoder) start(tag string, attrs []attr) error {
	if len(d.open) == 0 {
		switch {
		case d.root != nil:
			return syntaxErrf("multiple document elements")
		case tag == ProbTag || tag == PossTag:
			return syntaxErrf("document element may not be a %s marker", tag)
		}
		return d.startElem(tag, attrs)
	}
	switch parent := &d.open[len(d.open)-1]; parent.kind {
	case pxml.KindProb:
		if tag != PossTag {
			return syntaxErrf("<%s> may only contain <%s>, found <%s>", ProbTag, PossTag, tag)
		}
		return d.startPoss(attrs)
	case pxml.KindPoss:
		if tag == ProbTag || tag == PossTag {
			return syntaxErrf("<%s> may not directly contain <%s>", PossTag, tag)
		}
	default:
		switch tag {
		case ProbTag:
			if len(attrs) != 0 {
				return syntaxErrf("<%s> takes no attributes", ProbTag)
			}
			d.push(ProbTag, pxml.KindProb, 0)
			return nil
		case PossTag:
			return syntaxErrf("<%s> outside <%s> in <%s>", PossTag, ProbTag, parent.tag)
		}
	}
	return d.startElem(tag, attrs)
}

func (d *decoder) push(tag string, kind pxml.Kind, prob float64) {
	d.open = append(d.open, frame{tag: tag, kind: kind, prob: prob, kids: len(d.kids), text: len(d.text)})
}

// startElem opens a regular element; its attributes become its first
// children.
func (d *decoder) startElem(tag string, attrs []attr) error {
	if d.depth++; d.depth > MaxDepth {
		return syntaxErrf("nesting deeper than %d elements", MaxDepth)
	}
	d.push(tag, pxml.KindElem, 0)
	for _, a := range attrs {
		d.tmp = append(append(d.tmp[:0], AttrPrefix...), a.name...)
		d.kids = append(d.kids, d.b.Certain(d.b.Leaf(d.str(d.tmp), a.value)))
	}
	return nil
}

// startPoss opens a <_poss p="..."> marker.
func (d *decoder) startPoss(attrs []attr) error {
	prob := -1.0
	for _, a := range attrs {
		if a.name != "p" {
			return syntaxErrf("<%s> attribute %q not allowed", PossTag, a.name)
		}
		v, err := strconv.ParseFloat(a.value, 64)
		if err != nil {
			return syntaxErrf("<%s p=%q>: %v", PossTag, a.value, err)
		}
		prob = v
	}
	if prob < 0 {
		return syntaxErrf("<%s> requires attribute p", PossTag)
	}
	if !(prob > 0 && prob <= 1) { // NaN included
		return syntaxErrf("<%s p=%g>: probability out of range (0,1]", PossTag, prob)
	}
	d.push(PossTag, pxml.KindPoss, prob)
	return nil
}

// chars takes character data. A tokenizer may split one run of text into
// several calls, but only between characters.
func (d *decoder) chars(b []byte) error {
	if len(d.open) == 0 {
		if len(bytes.TrimSpace(b)) != 0 {
			if d.root == nil {
				return syntaxErrf("text outside document element")
			}
			return syntaxErrf("text after document element")
		}
		return nil
	}
	if top := &d.open[len(d.open)-1]; top.kind != pxml.KindElem {
		if len(bytes.TrimSpace(b)) != 0 {
			return syntaxErrf("text inside <%s>", top.tag)
		}
		return nil
	}
	d.text = append(d.text, b...)
	return nil
}

// end closes the innermost open element or marker, whose end tag the
// tokenizer has matched, and hands its node to the enclosing one.
func (d *decoder) end() error {
	f := d.open[len(d.open)-1]
	d.open = d.open[:len(d.open)-1]
	kids := d.kids[f.kids:]
	var n *pxml.Node
	switch f.kind {
	case pxml.KindElem:
		n = d.b.Elem(f.tag, d.str(bytes.TrimSpace(d.text[f.text:])), kids...)
		d.depth--
	case pxml.KindProb:
		if len(kids) == 0 {
			return syntaxErrf("<%s> without alternatives", ProbTag)
		}
		// startPoss has range-checked each probability and the Builder the
		// layering, which leaves the sum with Validate's tolerance.
		sum := 0.0
		for _, p := range kids {
			sum += p.Prob()
		}
		if math.Abs(sum-1) > pxml.ProbEpsilon*float64(len(kids)+1) {
			return syntaxErrf("invalid choice point: possibility probabilities sum to %g, want 1", sum)
		}
		n = d.b.Prob(kids...)
	case pxml.KindPoss:
		n = d.b.Poss(f.prob, kids...)
	}
	d.kids, d.text = d.kids[:f.kids], d.text[:f.text]
	if len(d.open) == 0 {
		d.root = n
		return nil
	}
	if f.kind == pxml.KindElem && d.open[len(d.open)-1].kind == pxml.KindElem {
		n = d.b.Certain(n)
	}
	d.kids = append(d.kids, n)
	return nil
}

// finish ends the document: the tokenizer has reached the end of its input
// with every element closed.
func (d *decoder) finish() (*pxml.Tree, error) {
	if d.root == nil {
		return nil, syntaxErrf("empty document")
	}
	// The document is hash-consed as it is built: repeated subtrees (common
	// in catalog-shaped sources) collapse into shared nodes, which shrinks
	// memory and makes summary work proportional to physical — not
	// logical — size.
	return pxml.MustTree(d.b.Certain(d.root)), nil
}
