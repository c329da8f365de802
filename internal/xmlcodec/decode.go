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
// own Unmarshal accepts. Decode refuses deeper input with a SyntaxError
// instead of recursing until the goroutine's stack overflows. Markers do not
// count: every element they wrap counts instead, so recursion stays within
// three frames per level, and a document accepted once still decodes after
// Encode wraps each of its elements in a <_prob><_poss> pair (KeepTrivial).
const MaxDepth = 10000

// Decode parses an XML document — plain or with probabilistic markers —
// into a probabilistic tree. The document element becomes the single
// certain root element of the tree.
func Decode(r io.Reader) (*pxml.Tree, error) {
	dec := xml.NewDecoder(r)
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return nil, syntaxErrf("empty document")
		}
		if err != nil {
			return nil, fmt.Errorf("xmlcodec: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if name(t.Name) == ProbTag || name(t.Name) == PossTag {
				return nil, syntaxErrf("document element may not be a %s marker", name(t.Name))
			}
			// The document is hash-consed as it is built: repeated subtrees
			// (common in catalog-shaped sources) collapse into shared nodes,
			// which shrinks memory and makes summary/index work proportional
			// to physical — not logical — size.
			d := &decoder{dec: dec, b: pxml.NewBuilder()}
			elem, err := d.elem(t)
			if err != nil {
				return nil, err
			}
			if err := skipTrailing(dec); err != nil {
				return nil, err
			}
			return pxml.MustTree(d.b.Certain(elem)), nil
		case xml.CharData:
			if len(bytes.TrimSpace(t)) != 0 {
				return nil, syntaxErrf("text outside document element")
			}
		case xml.ProcInst, xml.Comment, xml.Directive:
			// ignore
		}
	}
}

// DecodeString is Decode over a string.
func DecodeString(s string) (*pxml.Tree, error) {
	return Decode(strings.NewReader(s))
}

func skipTrailing(dec *xml.Decoder) error {
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("xmlcodec: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			return syntaxErrf("multiple document elements")
		case xml.CharData:
			if len(bytes.TrimSpace(t)) != 0 {
				return syntaxErrf("text after document element")
			}
		}
	}
}

func name(n xml.Name) string {
	if n.Space != "" {
		return n.Space + ":" + n.Local
	}
	return n.Local
}

// decoder builds one document. Every node goes through b, children first;
// the children and text of the open elements share one stack each, so no
// element allocates a child list or a text buffer of its own.
type decoder struct {
	dec   *xml.Decoder
	b     *pxml.Builder
	depth int          // open regular elements
	kids  []*pxml.Node // children of the open elements and markers, innermost last
	text  []byte       // text of the open elements, innermost last
}

// elem parses the contents of a regular element, whose start tag has
// already been consumed, up to and including its end tag.
func (d *decoder) elem(start xml.StartElement) (*pxml.Node, error) {
	if d.depth++; d.depth > MaxDepth {
		return nil, syntaxErrf("nesting deeper than %d elements", MaxDepth)
	}
	tag := name(start.Name)
	kids, text := len(d.kids), len(d.text)
	for _, a := range start.Attr {
		if isNamespaceDecl(a) {
			continue
		}
		d.kids = append(d.kids, d.b.Certain(d.b.Leaf(AttrPrefix+name(a.Name), a.Value)))
	}
	for {
		tok, err := d.dec.Token()
		if err != nil {
			return nil, fmt.Errorf("xmlcodec: in <%s>: %w", tag, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			switch name(t.Name) {
			case ProbTag:
				prob, err := d.prob(t)
				if err != nil {
					return nil, err
				}
				d.kids = append(d.kids, prob)
			case PossTag:
				return nil, syntaxErrf("<%s> outside <%s> in <%s>", PossTag, ProbTag, tag)
			default:
				kid, err := d.elem(t)
				if err != nil {
					return nil, err
				}
				d.kids = append(d.kids, d.b.Certain(kid))
			}
		case xml.CharData:
			d.text = append(d.text, t...)
		case xml.EndElement:
			n := d.b.Elem(tag, string(bytes.TrimSpace(d.text[text:])), d.kids[kids:]...)
			d.kids, d.text = d.kids[:kids], d.text[:text]
			d.depth--
			return n, nil
		}
	}
}

// prob parses a <_prob> marker into a ProbNode.
func (d *decoder) prob(start xml.StartElement) (*pxml.Node, error) {
	if len(start.Attr) != 0 && !allNamespaceDecls(start.Attr) {
		return nil, syntaxErrf("<%s> takes no attributes", ProbTag)
	}
	kids := len(d.kids)
	for {
		tok, err := d.dec.Token()
		if err != nil {
			return nil, fmt.Errorf("xmlcodec: in <%s>: %w", ProbTag, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if name(t.Name) != PossTag {
				return nil, syntaxErrf("<%s> may only contain <%s>, found <%s>", ProbTag, PossTag, name(t.Name))
			}
			p, err := d.poss(t)
			if err != nil {
				return nil, err
			}
			d.kids = append(d.kids, p)
		case xml.CharData:
			if len(bytes.TrimSpace(t)) != 0 {
				return nil, syntaxErrf("text inside <%s>", ProbTag)
			}
		case xml.EndElement:
			alts := d.kids[kids:]
			if len(alts) == 0 {
				return nil, syntaxErrf("<%s> without alternatives", ProbTag)
			}
			// poss has range-checked each probability and the Builder the
			// layering, which leaves the sum with Validate's tolerance.
			sum := 0.0
			for _, p := range alts {
				sum += p.Prob()
			}
			if math.Abs(sum-1) > pxml.ProbEpsilon*float64(len(alts)+1) {
				return nil, syntaxErrf("invalid choice point: possibility probabilities sum to %g, want 1", sum)
			}
			prob := d.b.Prob(alts...)
			d.kids = d.kids[:kids]
			return prob, nil
		}
	}
}

// poss parses a <_poss p="..."> marker into a PossNode.
func (d *decoder) poss(start xml.StartElement) (*pxml.Node, error) {
	prob := -1.0
	for _, a := range start.Attr {
		if isNamespaceDecl(a) {
			continue
		}
		if name(a.Name) != "p" {
			return nil, syntaxErrf("<%s> attribute %q not allowed", PossTag, name(a.Name))
		}
		v, err := strconv.ParseFloat(a.Value, 64)
		if err != nil {
			return nil, syntaxErrf("<%s p=%q>: %v", PossTag, a.Value, err)
		}
		prob = v
	}
	if prob < 0 {
		return nil, syntaxErrf("<%s> requires attribute p", PossTag)
	}
	if !(prob > 0 && prob <= 1) { // NaN included
		return nil, syntaxErrf("<%s p=%g>: probability out of range (0,1]", PossTag, prob)
	}
	kids := len(d.kids)
	for {
		tok, err := d.dec.Token()
		if err != nil {
			return nil, fmt.Errorf("xmlcodec: in <%s>: %w", PossTag, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			switch name(t.Name) {
			case ProbTag, PossTag:
				return nil, syntaxErrf("<%s> may not directly contain <%s>", PossTag, name(t.Name))
			default:
				kid, err := d.elem(t)
				if err != nil {
					return nil, err
				}
				d.kids = append(d.kids, kid)
			}
		case xml.CharData:
			if len(bytes.TrimSpace(t)) != 0 {
				return nil, syntaxErrf("text inside <%s>", PossTag)
			}
		case xml.EndElement:
			n := d.b.Poss(prob, d.kids[kids:]...)
			d.kids = d.kids[:kids]
			return n, nil
		}
	}
}

func isNamespaceDecl(a xml.Attr) bool {
	return a.Name.Local == "xmlns" || a.Name.Space == "xmlns"
}

func allNamespaceDecls(attrs []xml.Attr) bool {
	for _, a := range attrs {
		if !isNamespaceDecl(a) {
			return false
		}
	}
	return true
}
