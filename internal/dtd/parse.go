package dtd

import (
	"fmt"
	"io"
	"os"
	"strings"
)

// ParseError reports a syntax error in a DTD document with its line.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("dtd: line %d: %s", e.Line, e.Msg)
}

// Parse reads element declarations from DTD text. Comments (<!-- -->) and
// blank lines are ignored; anything else must be an <!ELEMENT> declaration.
func Parse(r io.Reader) (*Schema, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("dtd: %w", err)
	}
	return ParseString(string(data))
}

// ParseFile is Parse over the file at path.
func ParseFile(path string) (*Schema, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseString(string(data))
}

// ParseString is Parse over a string.
func ParseString(src string) (*Schema, error) {
	s := NewSchema()
	line := 1
	rest := src
	for {
		// Skip whitespace and comments.
		for {
			trimmed := strings.TrimLeft(rest, " \t\r\n")
			line += strings.Count(rest[:len(rest)-len(trimmed)], "\n")
			rest = trimmed
			if strings.HasPrefix(rest, "<!--") {
				end := strings.Index(rest, "-->")
				if end < 0 {
					return nil, &ParseError{Line: line, Msg: "unterminated comment"}
				}
				line += strings.Count(rest[:end+3], "\n")
				rest = rest[end+3:]
				continue
			}
			break
		}
		if rest == "" {
			return s, nil
		}
		if !strings.HasPrefix(rest, "<!ELEMENT") {
			return nil, &ParseError{Line: line, Msg: fmt.Sprintf("expected <!ELEMENT, found %q", firstToken(rest))}
		}
		end := strings.Index(rest, ">")
		if end < 0 {
			return nil, &ParseError{Line: line, Msg: "unterminated declaration"}
		}
		decl := rest[len("<!ELEMENT"):end]
		declLine := line
		line += strings.Count(rest[:end+1], "\n")
		rest = rest[end+1:]

		tag, model, err := parseDecl(decl, declLine)
		if err != nil {
			return nil, err
		}
		if _, dup := s.models[tag]; dup {
			return nil, &ParseError{Line: declLine, Msg: fmt.Sprintf("duplicate declaration of %q", tag)}
		}
		s.Declare(tag, model)
	}
}

// MustParse parses DTD text, panicking on error; for statically known DTDs.
func MustParse(src string) *Schema {
	s, err := ParseString(src)
	if err != nil {
		panic(err)
	}
	return s
}

func firstToken(s string) string {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return ""
	}
	if len(fields[0]) > 20 {
		return fields[0][:20]
	}
	return fields[0]
}

func parseDecl(decl string, line int) (string, *ContentModel, error) {
	decl = strings.TrimSpace(decl)
	fields := strings.Fields(decl)
	if len(fields) < 2 {
		return "", nil, &ParseError{Line: line, Msg: "declaration needs a name and a content model"}
	}
	tag := fields[0]
	if !validName(tag) {
		return "", nil, &ParseError{Line: line, Msg: fmt.Sprintf("invalid element name %q", tag)}
	}
	spec := strings.TrimSpace(decl[len(tag):])
	switch strings.ToUpper(spec) {
	case "EMPTY":
		return tag, Empty(), nil
	case "ANY":
		return tag, Any(), nil
	}
	if !strings.HasPrefix(spec, "(") || !strings.HasSuffix(spec, ")") {
		return "", nil, &ParseError{Line: line, Msg: fmt.Sprintf("content model %q must be parenthesized, EMPTY or ANY", spec)}
	}
	inner := strings.TrimSpace(spec[1 : len(spec)-1])
	if inner == "#PCDATA" {
		return tag, PCDATA(), nil
	}
	if inner == "" {
		return "", nil, &ParseError{Line: line, Msg: "empty content model"}
	}
	var model ContentModel
	model.Kind = ModelSeq
	seen := make(map[string]bool)
	for _, part := range strings.Split(inner, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return "", nil, &ParseError{Line: line, Msg: "empty field in content model"}
		}
		f := Field{Min: 1, Max: 1}
		switch part[len(part)-1] {
		case '?':
			f.Min, f.Max = 0, 1
			part = strings.TrimSpace(part[:len(part)-1])
		case '*':
			f.Min, f.Max = 0, Unbounded
			part = strings.TrimSpace(part[:len(part)-1])
		case '+':
			f.Min, f.Max = 1, Unbounded
			part = strings.TrimSpace(part[:len(part)-1])
		}
		if strings.Contains(part, "|") || strings.Contains(part, "(") {
			return "", nil, &ParseError{Line: line, Msg: fmt.Sprintf("alternation/groups not supported: %q", part)}
		}
		if !validName(part) {
			return "", nil, &ParseError{Line: line, Msg: fmt.Sprintf("invalid field name %q", part)}
		}
		if seen[part] {
			return "", nil, &ParseError{Line: line, Msg: fmt.Sprintf("field %q repeated in content model", part)}
		}
		seen[part] = true
		f.Tag = part
		model.Fields = append(model.Fields, f)
	}
	return tag, &model, nil
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '@':
		case (r >= '0' && r <= '9') || r == '-' || r == '.' || r == ':':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
