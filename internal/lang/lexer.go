package lang

import (
	"strings"
	"unicode"
)

// Lex drains the lexer: every token of src, skipping // and /* */
// comments, through the end-of-file token. The parser pulls tokens one
// at a time instead; this is for callers that want the sequence.
func Lex(src string) ([]Token, error) {
	l := newLexer(src)
	var toks []Token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

// lexer is the whole lexical state: a position in src. next produces
// one token per call; after an error it must not be called again.
type lexer struct {
	src       string
	off       int
	line, col int
}

func newLexer(src string) lexer { return lexer{src: src, line: 1, col: 1} }

func (l *lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

func (l *lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) skipSpaceAndComments() *Error {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			for {
				if l.off >= len(l.src) {
					return errf(start, "unterminated block comment")
				}
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					break
				}
				l.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

func (l *lexer) next() (Token, *Error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	pos := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: TokEOF, Pos: pos}, nil
	}
	c := l.peek()
	switch {
	case isIdentStart(c):
		start := l.off
		for l.off < len(l.src) && isIdentPart(l.peek()) {
			l.advance()
		}
		text := l.src[start:l.off]
		kind := TokIdent
		if keywords[text] {
			kind = TokKeyword
		}
		return Token{Kind: kind, Text: text, Pos: pos}, nil

	case unicode.IsDigit(rune(c)):
		start := l.off
		for l.off < len(l.src) && unicode.IsDigit(rune(l.peek())) {
			l.advance()
		}
		kind := TokIntLit
		if l.peek() == '.' && unicode.IsDigit(rune(l.peek2())) {
			kind = TokDoubleLit
			l.advance()
			for l.off < len(l.src) && unicode.IsDigit(rune(l.peek())) {
				l.advance()
			}
		}
		if l.peek() == 'e' || l.peek() == 'E' {
			kind = TokDoubleLit
			l.advance()
			if l.peek() == '+' || l.peek() == '-' {
				l.advance()
			}
			if !unicode.IsDigit(rune(l.peek())) {
				return Token{}, errf(l.pos(), "malformed exponent")
			}
			for l.off < len(l.src) && unicode.IsDigit(rune(l.peek())) {
				l.advance()
			}
		}
		return Token{Kind: kind, Text: l.src[start:l.off], Pos: pos}, nil

	case c == '"':
		l.advance()
		var b strings.Builder
		for {
			if l.off >= len(l.src) || l.peek() == '\n' {
				return Token{}, errf(pos, "unterminated string literal")
			}
			ch := l.advance()
			if ch == '"' {
				break
			}
			if ch == '\\' {
				if l.off >= len(l.src) {
					return Token{}, errf(pos, "unterminated escape")
				}
				esc := l.advance()
				switch esc {
				case 'n':
					b.WriteByte('\n')
				case 't':
					b.WriteByte('\t')
				case '"':
					b.WriteByte('"')
				case '\\':
					b.WriteByte('\\')
				default:
					return Token{}, errf(pos, "bad escape \\%c", esc)
				}
				continue
			}
			b.WriteByte(ch)
		}
		return Token{Kind: TokStringLit, Text: b.String(), Pos: pos}, nil

	case strings.IndexByte("(){}[];,.", c) >= 0:
		l.advance()
		return Token{Kind: TokPunct, Text: l.src[l.off-1 : l.off], Pos: pos}, nil

	default:
		// Operators, longest match first.
		for _, op := range []string{"==", "!=", "<=", ">=", "&&", "||",
			"++", "--", "+=", "-=",
			"=", "<", ">", "+", "-", "*", "/", "%", "!"} {
			if strings.HasPrefix(l.src[l.off:], op) {
				for range op {
					l.advance()
				}
				return Token{Kind: TokOp, Text: op, Pos: pos}, nil
			}
		}
		return Token{}, errf(pos, "unexpected character %q", string(c))
	}
}
