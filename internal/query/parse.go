package query

import (
	"fmt"
	"unicode"
)

// ParseError reports a query syntax error with its byte position.
type ParseError struct {
	Pos int
	Msg string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("query: position %d: %s", e.Pos, e.Msg)
}

// MaxNesting bounds how deeply a query may nest predicates, parenthesized
// conditions and not(…): the parser recurses once per level, and a query
// arriving over HTTP must not be able to exhaust the goroutine stack.
const MaxNesting = 256

// Compile parses a query of the supported XPath subset:
//
//	query  := ('/' | '//') step (('/' | '//') step)*
//	step   := (NAME | '*' | 'text()') pred*
//	pred   := '[' or ']'
//	or     := and ('or' and)*
//	and    := not ('and' not)*
//	not    := 'not' '(' or ')' | '(' or ')' | cmp
//	cmp    := rpath ('=' literal)?
//	        | 'contains' '(' rpath ',' literal ')'
//	        | 'some' '$'NAME 'in' rpath 'satisfies' vcond
//	vcond  := 'contains' '(' '$'NAME ',' literal ')' | '$'NAME '=' literal
//	rpath  := '.' | ('.')? ('/'|'//') step … | step (('/'|'//') step)*
//
// Comparison predicates have existential semantics over the node set, as
// in the paper's example queries. Predicates, parentheses and not(…) nest
// at most MaxNesting levels deep.
func Compile(src string) (*Query, error) {
	p := &parser{lex: &lexer{src: src}, src: src}
	p.tok = p.lex.next()
	q, err := p.parseQuery()
	if p.lex.err != nil {
		// The parser stopped at the end-of-input token the error left.
		return nil, p.lex.err
	}
	return q, err
}

// MustCompile is Compile that panics on error, for statically known
// queries.
func MustCompile(src string) *Query {
	q, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return q
}

// --- lexer ---

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokSlash
	tokDSlash
	tokName   // identifier
	tokVar    // $identifier
	tokStar   // *
	tokDot    // .
	tokLBrack // [
	tokRBrack // ]
	tokLParen // (
	tokRParen // )
	tokComma  // ,
	tokEq     // =
	tokString // quoted literal
	tokNumber // numeric literal (kept as text)
)

type token struct {
	kind tokKind
	text string
	pos  int
}

// lexer scans tokens on demand, so a query the parser refuses early is
// never tokenized in full.
type lexer struct {
	src string
	pos int
	err *ParseError
}

func (l *lexer) errorf(pos int, format string, args ...any) {
	if l.err == nil {
		l.err = &ParseError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
	}
}

// next scans the token at l.pos. At the end of the input, and from the
// first lexical error on, it returns tokEOF.
func (l *lexer) next() token {
	s := l.src
	for l.pos < len(s) && (s[l.pos] == ' ' || s[l.pos] == '\t' || s[l.pos] == '\n' || s[l.pos] == '\r') {
		l.pos++
	}
	i := l.pos
	if l.err != nil || i == len(s) {
		return token{kind: tokEOF, pos: len(s)}
	}
	// tok emits s[i:end] as a token of kind k.
	tok := func(k tokKind, end int) token {
		l.pos = end
		return token{kind: k, text: s[i:end], pos: i}
	}
	scan := func(j int, ok func(byte) bool) int {
		for j < len(s) && ok(s[j]) {
			j++
		}
		return j
	}
	switch c := s[i]; {
	case c == '/':
		if i+1 < len(s) && s[i+1] == '/' {
			return tok(tokDSlash, i+2)
		}
		return tok(tokSlash, i+1)
	case c == '*':
		return tok(tokStar, i+1)
	case c == '.':
		return tok(tokDot, i+1)
	case c == '[':
		return tok(tokLBrack, i+1)
	case c == ']':
		return tok(tokRBrack, i+1)
	case c == '(':
		return tok(tokLParen, i+1)
	case c == ')':
		return tok(tokRParen, i+1)
	case c == ',':
		return tok(tokComma, i+1)
	case c == '=':
		return tok(tokEq, i+1)
	case c == '"' || c == '\'':
		j := scan(i+1, func(b byte) bool { return b != c })
		if j >= len(s) {
			l.errorf(i, "unterminated string literal")
			return token{kind: tokEOF, pos: len(s)}
		}
		l.pos = j + 1
		return token{kind: tokString, text: s[i+1 : j], pos: i}
	case c == '$':
		j := scan(i+1, isNameByte)
		if j == i+1 {
			l.errorf(i, "empty variable name after $")
			return token{kind: tokEOF, pos: len(s)}
		}
		l.pos = j
		return token{kind: tokVar, text: s[i+1 : j], pos: i}
	case c >= '0' && c <= '9':
		return tok(tokNumber, scan(i, func(b byte) bool { return b >= '0' && b <= '9' || b == '.' }))
	case isNameStartByte(c):
		return tok(tokName, scan(i, isNameByte))
	default:
		l.errorf(i, "unexpected character %q", rune(c))
		return token{kind: tokEOF, pos: len(s)}
	}
}

func isNameStartByte(c byte) bool {
	return c == '_' || c == '@' || unicode.IsLetter(rune(c))
}

func isNameByte(c byte) bool {
	return isNameStartByte(c) || (c >= '0' && c <= '9') || c == '-' || c == ':'
}

// --- parser ---

type parser struct {
	lex   *lexer
	src   string
	tok   token // the one token of lookahead
	depth int   // the predicates, parentheses and not(…) open
}

func (p *parser) peek() token { return p.tok }

func (p *parser) next() token {
	t := p.tok
	if t.kind != tokEOF {
		p.tok = p.lex.next()
	}
	return t
}

// enter opens one more nesting level at t, refusing more than MaxNesting;
// the caller closes it by decrementing p.depth once the level is parsed.
func (p *parser) enter(t token) error {
	if p.depth++; p.depth > MaxNesting {
		return &ParseError{Pos: t.pos, Msg: fmt.Sprintf("query nests deeper than %d levels", MaxNesting)}
	}
	return nil
}

func (p *parser) expect(k tokKind, what string) (token, error) {
	t := p.next()
	if t.kind != k {
		return t, &ParseError{Pos: t.pos, Msg: fmt.Sprintf("expected %s, found %q", what, t.text)}
	}
	return t, nil
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{src: p.src}
	first := true
	for {
		t := p.peek()
		var desc bool
		switch t.kind {
		case tokSlash:
			desc = false
		case tokDSlash:
			desc = true
		default:
			if first {
				return nil, &ParseError{Pos: t.pos, Msg: "query must start with / or //"}
			}
			if t.kind != tokEOF {
				return nil, &ParseError{Pos: t.pos, Msg: fmt.Sprintf("unexpected %q after path", t.text)}
			}
			if err := validateSteps(q.Steps); err != nil {
				return nil, err
			}
			return q, nil
		}
		p.next()
		step, err := p.parseStep(desc)
		if err != nil {
			return nil, err
		}
		q.Steps = append(q.Steps, step)
		first = false
	}
}

func validateSteps(steps []Step) error {
	if len(steps) == 0 {
		return &ParseError{Pos: 0, Msg: "empty path"}
	}
	if len(steps) > 62 {
		return &ParseError{Pos: 0, Msg: "too many steps (max 62)"}
	}
	if steps[0].IsText {
		return &ParseError{Pos: 0, Msg: "text() cannot be the first step"}
	}
	for i, s := range steps {
		if s.IsText && i != len(steps)-1 {
			return &ParseError{Pos: 0, Msg: "text() must be the last step"}
		}
		if s.IsText && len(s.Preds) > 0 {
			return &ParseError{Pos: 0, Msg: "text() takes no predicates"}
		}
	}
	return nil
}

func (p *parser) parseStep(desc bool) (Step, error) {
	t := p.next()
	step := Step{Desc: desc}
	switch t.kind {
	case tokStar:
		step.Name = "*"
	case tokName:
		if t.text == "text" && p.peek().kind == tokLParen {
			p.next()
			if _, err := p.expect(tokRParen, ")"); err != nil {
				return step, err
			}
			step.IsText = true
			step.Name = "text()"
			break
		}
		step.Name = t.text
	default:
		return step, &ParseError{Pos: t.pos, Msg: fmt.Sprintf("expected step name, found %q", t.text)}
	}
	for p.peek().kind == tokLBrack {
		if err := p.enter(p.next()); err != nil {
			return step, err
		}
		pred, err := p.parseOr()
		if err != nil {
			return step, err
		}
		if _, err := p.expect(tokRBrack, "]"); err != nil {
			return step, err
		}
		p.depth--
		step.Preds = append(step.Preds, pred)
	}
	return step, nil
}

func (p *parser) parseOr() (Pred, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokName && p.peek().text == "or" {
		p.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = PredOr{A: left, B: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Pred, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokName && p.peek().text == "and" {
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = PredAnd{A: left, B: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (Pred, error) {
	t := p.peek()
	neg := t.kind == tokName && t.text == "not"
	if !neg && t.kind != tokLParen {
		return p.parseComparison()
	}
	if err := p.enter(p.next()); err != nil {
		return nil, err
	}
	if neg {
		if _, err := p.expect(tokLParen, "("); err != nil {
			return nil, err
		}
	}
	inner, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen, ")"); err != nil {
		return nil, err
	}
	p.depth--
	if neg {
		return PredNot{P: inner}, nil
	}
	return inner, nil
}

func (p *parser) parseComparison() (Pred, error) {
	t := p.peek()
	if t.kind == tokName {
		switch t.text {
		case "contains":
			return p.parseContains()
		case "some":
			return p.parseSome()
		}
	}
	path, err := p.parseRelPath()
	if err != nil {
		return nil, err
	}
	if p.peek().kind == tokEq {
		p.next()
		lit, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		return PredExists{Path: path, Cond: CondEq{Lit: lit}}, nil
	}
	return PredExists{Path: path, Cond: CondAny{}}, nil
}

func (p *parser) parseContains() (Pred, error) {
	p.next() // contains
	if _, err := p.expect(tokLParen, "("); err != nil {
		return nil, err
	}
	path, err := p.parseRelPath()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokComma, ","); err != nil {
		return nil, err
	}
	lit, err := p.parseLiteral()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen, ")"); err != nil {
		return nil, err
	}
	return PredExists{Path: path, Cond: CondContains{Lit: lit}}, nil
}

// parseSome handles `some $v in path satisfies cond($v)`, the paper's
// second example query form. The condition must reference the variable.
func (p *parser) parseSome() (Pred, error) {
	p.next() // some
	v, err := p.expect(tokVar, "variable")
	if err != nil {
		return nil, err
	}
	inTok, err := p.expect(tokName, "'in'")
	if err != nil || inTok.text != "in" {
		return nil, &ParseError{Pos: inTok.pos, Msg: "expected 'in'"}
	}
	path, err := p.parseRelPath()
	if err != nil {
		return nil, err
	}
	sat, err := p.expect(tokName, "'satisfies'")
	if err != nil || sat.text != "satisfies" {
		return nil, &ParseError{Pos: sat.pos, Msg: "expected 'satisfies'"}
	}
	cond, err := p.parseVarCond(v.text)
	if err != nil {
		return nil, err
	}
	return PredExists{Path: path, Cond: cond}, nil
}

func (p *parser) parseVarCond(varName string) (ValueCond, error) {
	t := p.next()
	switch {
	case t.kind == tokName && t.text == "contains":
		if _, err := p.expect(tokLParen, "("); err != nil {
			return nil, err
		}
		v, err := p.expect(tokVar, "variable")
		if err != nil {
			return nil, err
		}
		if v.text != varName {
			return nil, &ParseError{Pos: v.pos, Msg: fmt.Sprintf("unknown variable $%s", v.text)}
		}
		if _, err := p.expect(tokComma, ","); err != nil {
			return nil, err
		}
		lit, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return CondContains{Lit: lit}, nil
	case t.kind == tokVar:
		if t.text != varName {
			return nil, &ParseError{Pos: t.pos, Msg: fmt.Sprintf("unknown variable $%s", t.text)}
		}
		if _, err := p.expect(tokEq, "="); err != nil {
			return nil, err
		}
		lit, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		return CondEq{Lit: lit}, nil
	default:
		return nil, &ParseError{Pos: t.pos, Msg: "expected contains($var, …) or $var = …"}
	}
}

func (p *parser) parseLiteral() (string, error) {
	t := p.next()
	switch t.kind {
	case tokString, tokNumber:
		return t.text, nil
	default:
		return "", &ParseError{Pos: t.pos, Msg: fmt.Sprintf("expected literal, found %q", t.text)}
	}
}

// parseRelPath parses a predicate-relative path: `.`, `.//a/b`, `./a`,
// `a/b`, `//a`.
func (p *parser) parseRelPath() (RelPath, error) {
	var rp RelPath
	t := p.peek()
	switch t.kind {
	case tokDot:
		p.next()
		rp.Self = true
		if p.peek().kind != tokSlash && p.peek().kind != tokDSlash {
			return rp, nil // bare "."
		}
	case tokName, tokStar:
		// Leading step without slash, e.g. [genre="Horror"].
		step, err := p.parseStep(false)
		if err != nil {
			return rp, err
		}
		rp.Steps = append(rp.Steps, step)
	case tokSlash, tokDSlash:
		// Treated as relative to the context element.
	default:
		return rp, &ParseError{Pos: t.pos, Msg: fmt.Sprintf("expected path, found %q", t.text)}
	}
	for {
		t := p.peek()
		var desc bool
		switch t.kind {
		case tokSlash:
			desc = false
		case tokDSlash:
			desc = true
		default:
			if len(rp.Steps) == 0 && !rp.Self {
				return rp, &ParseError{Pos: t.pos, Msg: "empty path in predicate"}
			}
			if err := validateRelSteps(rp.Steps); err != nil {
				return rp, err
			}
			return rp, nil
		}
		p.next()
		step, err := p.parseStep(desc)
		if err != nil {
			return rp, err
		}
		rp.Steps = append(rp.Steps, step)
	}
}

func validateRelSteps(steps []Step) error {
	for i, s := range steps {
		if s.IsText && i != len(steps)-1 {
			return &ParseError{Pos: 0, Msg: "text() must be the last step"}
		}
	}
	return nil
}
