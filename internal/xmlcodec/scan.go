package xmlcodec

import (
	"bytes"
	"unicode/utf8"

	"repro/internal/pxml"
)

// scan decodes src with the byte scanner, which reads in one pass the
// language catalog sources and Encode's output are written in: unprefixed
// ASCII names, quoted attributes, UTF-8 character data, the five predefined
// entities and numeric character references, comments, processing
// instructions and an <?xml version="1.0"?> declaration. It reports false
// when it declines src: on anything else (a DOCTYPE, CDATA, a prefixed name
// or xmlns, a carriage return), on input encoding/xml would reject, and on
// input the consumer rejects. It accepts only what encoding/xml accepts,
// with the same events, so Decode's result never depends on which of the
// two read it.
func scan(src []byte) (*pxml.Tree, bool) {
	if bytes.IndexByte(src, '\r') >= 0 { // encoding/xml rewrites line ends
		return nil, false
	}
	s := scanner{src: src, d: newDecoder(len(src))}
	if !s.run() {
		return nil, false
	}
	t, err := s.d.finish()
	return t, err == nil
}

type scanner struct {
	src   []byte
	pos   int
	d     *decoder
	open  []string // tags of the open elements and markers, innermost last
	attrs []attr
	buf   []byte // text with its references replaced
}

func (s *scanner) run() bool {
	for s.pos < len(s.src) {
		if s.src[s.pos] != '<' {
			end := bytes.IndexByte(s.src[s.pos:], '<')
			if end < 0 {
				end = len(s.src) - s.pos
			}
			text, ok := s.unescape(s.src[s.pos:s.pos+end], false)
			if !ok || s.d.chars(text) != nil {
				return false
			}
			s.pos += end
			continue
		}
		var ok bool
		switch s.peek(1) {
		case '/':
			ok = s.endTag()
		case '?':
			ok = s.procInst()
		case '!':
			ok = s.comment()
		default:
			ok = s.startTag()
		}
		if !ok {
			return false
		}
	}
	return len(s.open) == 0
}

// peek returns the byte i past the current one, or 0 past the end.
func (s *scanner) peek(i int) byte {
	if s.pos+i < len(s.src) {
		return s.src[s.pos+i]
	}
	return 0
}

func (s *scanner) space() {
	for s.pos < len(s.src) && (s.src[s.pos] == ' ' || s.src[s.pos] == '\t' || s.src[s.pos] == '\n') {
		s.pos++
	}
}

// name consumes a name at the current position and returns its bytes. It
// reports false when there is none, and when the name goes on with a byte
// encoding/xml would read as part of it (a colon or a non-ASCII byte).
func (s *scanner) name() ([]byte, bool) {
	start := s.pos
	if start >= len(s.src) || !nameStart(s.src[start]) {
		return nil, false
	}
	for s.pos++; s.pos < len(s.src) && nameByte(s.src[s.pos]); s.pos++ {
	}
	if c := s.peek(0); c == ':' || c >= utf8.RuneSelf {
		return nil, false
	}
	return s.src[start:s.pos], true
}

func nameStart(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_'
}

func nameByte(c byte) bool {
	return nameStart(c) || '0' <= c && c <= '9' || c == '.' || c == '-'
}

// startTag reads <name attr="value" ...> or <name .../>.
func (s *scanner) startTag() bool {
	s.pos++
	b, ok := s.name()
	if !ok {
		return false
	}
	tag := s.d.str(b)
	s.attrs = s.attrs[:0]
	for {
		s.space()
		switch s.peek(0) {
		case '>':
			s.pos++
			s.open = append(s.open, tag)
			return s.d.start(tag, s.attrs) == nil
		case '/':
			if s.peek(1) != '>' {
				return false
			}
			s.pos += 2
			return s.d.start(tag, s.attrs) == nil && s.d.end() == nil
		}
		b, ok := s.name()
		if !ok || string(b) == "xmlns" {
			return false
		}
		name := s.d.str(b)
		s.space()
		if s.peek(0) != '=' {
			return false
		}
		s.pos++
		s.space()
		quote := s.peek(0)
		if quote != '"' && quote != '\'' {
			return false
		}
		s.pos++
		end := bytes.IndexByte(s.src[s.pos:], quote)
		if end < 0 {
			return false
		}
		value, ok := s.unescape(s.src[s.pos:s.pos+end], true)
		if !ok {
			return false
		}
		s.attrs = append(s.attrs, attr{name, s.d.str(value)})
		s.pos += end + 1
	}
}

// endTag reads </name>, which must close the innermost open element.
func (s *scanner) endTag() bool {
	s.pos += 2
	b, ok := s.name()
	if !ok || len(s.open) == 0 || string(b) != s.open[len(s.open)-1] {
		return false
	}
	s.space()
	if s.peek(0) != '>' {
		return false
	}
	s.pos++
	s.open = s.open[:len(s.open)-1]
	return s.d.end() == nil
}

// comment skips <!-- ... -->, in which "--" may only end the comment.
func (s *scanner) comment() bool {
	if s.peek(2) != '-' || s.peek(3) != '-' {
		return false // a DOCTYPE or CDATA
	}
	body := s.src[s.pos+4:]
	i := bytes.Index(body, []byte("--"))
	if i < 0 || i+2 >= len(body) || body[i+2] != '>' {
		return false
	}
	s.pos += 4 + i + 3
	return true
}

// procInst skips <?target ...?>. The target xml is an XML declaration,
// whose version and encoding encoding/xml checks; only the plain forms are
// read here.
func (s *scanner) procInst() bool {
	s.pos += 2
	target, ok := s.name()
	if !ok {
		return false
	}
	s.space()
	end := bytes.Index(s.src[s.pos:], []byte("?>"))
	if end < 0 {
		return false
	}
	if string(target) == "xml" {
		switch string(bytes.TrimRight(s.src[s.pos:s.pos+end], " \t\n")) {
		case `version="1.0"`, `version="1.0" encoding="UTF-8"`, `version="1.0" encoding="utf-8"`:
		default:
			return false
		}
	}
	s.pos += end + 2
	return true
}

// unescape checks the character data raw (text up to a '<', or an
// attribute value between its quotes) as encoding/xml does — UTF-8 in XML's
// Char range, no "]]>" outside attributes, no '<' inside them — and returns
// it with its references replaced: raw itself when it holds none, else a
// buffer valid until the next call.
func (s *scanner) unescape(raw []byte, inAttr bool) ([]byte, bool) {
	escaped := false
	from := 0 // once escaped, raw[:from] is in s.buf
	for i := 0; i < len(raw); {
		c := raw[i]
		if c >= utf8.RuneSelf {
			r, n := utf8.DecodeRune(raw[i:])
			if r == utf8.RuneError && n == 1 || !isChar(r) {
				return nil, false
			}
			i += n
			continue
		}
		switch {
		case c == '&':
			r, n := reference(raw[i:])
			if n == 0 {
				return nil, false
			}
			if !escaped {
				s.buf, escaped = s.buf[:0], true
			}
			s.buf = utf8.AppendRune(append(s.buf, raw[from:i]...), r)
			i += n
			from = i
			continue
		case c < 0x20 && c != '\t' && c != '\n',
			c == '<' && inAttr,
			c == '>' && !inAttr && i >= 2 && raw[i-1] == ']' && raw[i-2] == ']':
			return nil, false
		}
		i++
	}
	if !escaped {
		return raw, true
	}
	s.buf = append(s.buf, raw[from:]...)
	return s.buf, true
}

// reference decodes the entity or character reference b begins with,
// returning the character and the reference's length, or a length of 0 for
// anything else.
func reference(b []byte) (rune, int) {
	end := bytes.IndexByte(b[:min(len(b), 10)], ';')
	if end < 0 {
		return 0, 0
	}
	switch ref := b[1:end]; string(ref) {
	case "lt":
		return '<', end + 1
	case "gt":
		return '>', end + 1
	case "amp":
		return '&', end + 1
	case "apos":
		return '\'', end + 1
	case "quot":
		return '"', end + 1
	default:
		if len(ref) < 2 || ref[0] != '#' {
			return 0, 0
		}
		digits, base := ref[1:], rune(10)
		if digits[0] == 'x' {
			digits, base = digits[1:], 16
		}
		if len(digits) == 0 {
			return 0, 0
		}
		var r rune
		for _, c := range digits {
			var v rune
			switch {
			case '0' <= c && c <= '9':
				v = rune(c - '0')
			case base == 16 && 'a' <= c && c <= 'f':
				v = rune(c-'a') + 10
			case base == 16 && 'A' <= c && c <= 'F':
				v = rune(c-'A') + 10
			default:
				return 0, 0
			}
			r = r*base + v
		}
		if !utf8.ValidRune(r) || !isChar(r) {
			return 0, 0
		}
		return r, end + 1
	}
}

// isChar reports whether r is in XML's Char production, as encoding/xml
// checks it.
func isChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}
