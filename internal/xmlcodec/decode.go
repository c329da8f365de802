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
	"encoding/xml"
	"fmt"
	"io"
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
			b := pxml.NewBuilder()
			elem, err := decodeElem(dec, b, t)
			if err != nil {
				return nil, err
			}
			if err := skipTrailing(dec); err != nil {
				return nil, err
			}
			return pxml.MustTree(b.Certain(elem)), nil
		case xml.CharData:
			if strings.TrimSpace(string(t)) != "" {
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
			if strings.TrimSpace(string(t)) != "" {
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

// decodeElem parses the contents of a regular element, whose start tag has
// already been consumed, up to and including its end tag. Every node is
// built through b, children first.
func decodeElem(dec *xml.Decoder, b *pxml.Builder, start xml.StartElement) (*pxml.Node, error) {
	tag := name(start.Name)
	var probKids []*pxml.Node
	for _, a := range start.Attr {
		if isNamespaceDecl(a) {
			continue
		}
		probKids = append(probKids, b.Certain(b.Leaf(AttrPrefix+name(a.Name), a.Value)))
	}
	var text strings.Builder
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("xmlcodec: in <%s>: %w", tag, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			switch name(t.Name) {
			case ProbTag:
				prob, err := decodeProb(dec, b, t)
				if err != nil {
					return nil, err
				}
				probKids = append(probKids, prob)
			case PossTag:
				return nil, syntaxErrf("<%s> outside <%s> in <%s>", PossTag, ProbTag, tag)
			default:
				kid, err := decodeElem(dec, b, t)
				if err != nil {
					return nil, err
				}
				probKids = append(probKids, b.Certain(kid))
			}
		case xml.CharData:
			text.Write(t)
		case xml.EndElement:
			return b.Elem(tag, strings.TrimSpace(text.String()), probKids...), nil
		}
	}
}

// decodeProb parses a <_prob> marker into a ProbNode.
func decodeProb(dec *xml.Decoder, b *pxml.Builder, start xml.StartElement) (*pxml.Node, error) {
	if len(start.Attr) != 0 && !allNamespaceDecls(start.Attr) {
		return nil, syntaxErrf("<%s> takes no attributes", ProbTag)
	}
	var poss []*pxml.Node
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("xmlcodec: in <%s>: %w", ProbTag, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if name(t.Name) != PossTag {
				return nil, syntaxErrf("<%s> may only contain <%s>, found <%s>", ProbTag, PossTag, name(t.Name))
			}
			p, err := decodePoss(dec, b, t)
			if err != nil {
				return nil, err
			}
			poss = append(poss, p)
		case xml.CharData:
			if strings.TrimSpace(string(t)) != "" {
				return nil, syntaxErrf("text inside <%s>", ProbTag)
			}
		case xml.EndElement:
			if len(poss) == 0 {
				return nil, syntaxErrf("<%s> without alternatives", ProbTag)
			}
			prob := b.Prob(poss...)
			if err := pxml.CertainTree(pxml.NewElem("_check", "", prob)).Validate(); err != nil {
				return nil, syntaxErrf("invalid choice point: %v", err)
			}
			return prob, nil
		}
	}
}

// decodePoss parses a <_poss p="..."> marker into a PossNode.
func decodePoss(dec *xml.Decoder, b *pxml.Builder, start xml.StartElement) (*pxml.Node, error) {
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
	if prob == 0 || prob > 1 {
		return nil, syntaxErrf("<%s p=%g>: probability out of range (0,1]", PossTag, prob)
	}
	var elems []*pxml.Node
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("xmlcodec: in <%s>: %w", PossTag, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			switch name(t.Name) {
			case ProbTag, PossTag:
				return nil, syntaxErrf("<%s> may not directly contain <%s>", PossTag, name(t.Name))
			default:
				kid, err := decodeElem(dec, b, t)
				if err != nil {
					return nil, err
				}
				elems = append(elems, kid)
			}
		case xml.CharData:
			if strings.TrimSpace(string(t)) != "" {
				return nil, syntaxErrf("text inside <%s>", PossTag)
			}
		case xml.EndElement:
			return b.Poss(prob, elems...), nil
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
