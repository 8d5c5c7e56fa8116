package lang

import (
	"strings"
	"unicode/utf8"
)

// lexer is the whole lexical state: a position in src, and the line it
// is on. next stores one token in *t per call; after an error it must
// not be called again.
type lexer struct {
	src       string
	off       int
	line      int
	lineStart int // offset of the line's first byte
}

func newLexer(src string) lexer { return lexer{src: src, line: 1} }

// pos is the position of the byte at off, which is on the current line.
func (l *lexer) pos(off int) Pos { return Pos{Line: l.line, Col: off - l.lineStart + 1} }

// byteAt is src[off], or 0 past the end.
func (l *lexer) byteAt(off int) byte {
	if off >= len(l.src) {
		return 0
	}
	return l.src[off]
}

// newlines moves the line past every newline in src[from:to].
func (l *lexer) newlines(from, to int) {
	for {
		i := strings.IndexByte(l.src[from:to], '\n')
		if i < 0 {
			return
		}
		from += i + 1
		l.line, l.lineStart = l.line+1, from
	}
}

func (l *lexer) skipSpaceAndComments() *Error {
	for l.off < len(l.src) {
		switch c := l.src[l.off]; {
		case c == '\n':
			l.off++
			l.line, l.lineStart = l.line+1, l.off
		case c == ' ' || c == '\t' || c == '\r':
			l.off++
		case c == '/' && l.byteAt(l.off+1) == '/':
			if i := strings.IndexByte(l.src[l.off:], '\n'); i >= 0 {
				l.off += i
			} else {
				l.off = len(l.src)
			}
		case c == '/' && l.byteAt(l.off+1) == '*':
			i := strings.Index(l.src[l.off+2:], "*/")
			if i < 0 {
				return errf(l.pos(l.off), "unterminated block comment")
			}
			end := l.off + 2 + i + 2
			l.newlines(l.off, end)
			l.off = end
		default:
			return nil
		}
	}
	return nil
}

func isLetter(c byte) bool { return 'a' <= c|0x20 && c|0x20 <= 'z' || c == '_' }
func isDigit(c byte) bool  { return '0' <= c && c <= '9' }

// skipDigits moves off past a run of decimal digits.
func (l *lexer) skipDigits() {
	for l.off < len(l.src) && isDigit(l.src[l.off]) {
		l.off++
	}
}

func (l *lexer) next(t *Token) *Error {
	if err := l.skipSpaceAndComments(); err != nil {
		return err
	}
	start := l.off
	pos := l.pos(start)
	if start >= len(l.src) {
		*t = Token{Kind: TokEOF, Pos: pos}
		return nil
	}
	kind, n := tokBad, 1
	switch c := l.src[start]; c {
	case '(':
		kind = TokLParen
	case ')':
		kind = TokRParen
	case '{':
		kind = TokLBrace
	case '}':
		kind = TokRBrace
	case '[':
		kind = TokLBrack
	case ']':
		kind = TokRBrack
	case ';':
		kind = TokSemi
	case ',':
		kind = TokComma
	case '.':
		kind = TokDot
	case '*':
		kind = TokMul
	case '/':
		kind = TokDiv
	case '%':
		kind = TokRem
	case '=':
		kind, n = l.switch2(TokAssign, TokEq)
	case '!':
		kind, n = l.switch2(TokNot, TokNe)
	case '<':
		kind, n = l.switch2(TokLt, TokLe)
	case '>':
		kind, n = l.switch2(TokGt, TokGe)
	case '+':
		kind, n = l.switch3(TokAdd, TokAddAssign, '+', TokInc)
	case '-':
		kind, n = l.switch3(TokSub, TokSubAssign, '-', TokDec)
	case '&':
		if l.byteAt(start+1) == '&' {
			kind, n = TokAndAnd, 2
		}
	case '|':
		if l.byteAt(start+1) == '|' {
			kind, n = TokOrOr, 2
		}
	case '"':
		return l.stringLit(t, pos)
	default:
		switch {
		case isLetter(c):
			l.off++
			for l.off < len(l.src) && (isLetter(l.src[l.off]) || isDigit(l.src[l.off])) {
				l.off++
			}
			text := l.src[start:l.off]
			*t = Token{Kind: keyword(text), Text: text, Pos: pos}
			return nil
		case isDigit(c):
			return l.number(t, pos)
		case c >= utf8.RuneSelf:
			_, n = utf8.DecodeRuneInString(l.src[start:])
		}
	}
	if kind == tokBad {
		return errf(pos, "unexpected character %q", l.src[start:start+n])
	}
	l.off += n
	*t = Token{Kind: kind, Text: l.src[start:l.off], Pos: pos}
	return nil
}

// switch2 is tok1 when the byte after the current one is '=', else
// tok0, with the token's length.
func (l *lexer) switch2(tok0, tok1 TokKind) (TokKind, int) {
	if l.byteAt(l.off+1) == '=' {
		return tok1, 2
	}
	return tok0, 1
}

// switch3 is switch2, and tok2 when the next byte is ch2.
func (l *lexer) switch3(tok0, tok1 TokKind, ch2 byte, tok2 TokKind) (TokKind, int) {
	if l.byteAt(l.off+1) == ch2 {
		return tok2, 2
	}
	return l.switch2(tok0, tok1)
}

func keyword(s string) TokKind {
	switch s {
	case "class":
		return TokClass
	case "extends":
		return TokExtends
	case "remote":
		return TokRemote
	case "static":
		return TokStatic
	case "new":
		return TokNew
	case "if":
		return TokIf
	case "else":
		return TokElse
	case "while":
		return TokWhile
	case "for":
		return TokFor
	case "return":
		return TokReturn
	case "true":
		return TokTrue
	case "false":
		return TokFalse
	case "null":
		return TokNull
	case "this":
		return TokThis
	case "int":
		return TokInt
	case "double":
		return TokDouble
	case "boolean":
		return TokBoolean
	case "String":
		return TokString
	case "void":
		return TokVoid
	}
	return TokIdent
}

func (l *lexer) number(t *Token, pos Pos) *Error {
	start := l.off
	l.skipDigits()
	kind := TokIntLit
	if l.byteAt(l.off) == '.' && isDigit(l.byteAt(l.off+1)) {
		kind = TokDoubleLit
		l.off++
		l.skipDigits()
	}
	if c := l.byteAt(l.off); c == 'e' || c == 'E' {
		kind = TokDoubleLit
		l.off++
		if c := l.byteAt(l.off); c == '+' || c == '-' {
			l.off++
		}
		if !isDigit(l.byteAt(l.off)) {
			return errf(l.pos(l.off), "malformed exponent")
		}
		l.skipDigits()
	}
	*t = Token{Kind: kind, Text: l.src[start:l.off], Pos: pos}
	return nil
}

// stringLit lexes a string literal from its opening quote. Its Text is
// the source between the quotes unless that holds an escape.
func (l *lexer) stringLit(t *Token, pos Pos) *Error {
	l.off++
	start := l.off
	escaped := false
	var b strings.Builder
	for {
		if l.off >= len(l.src) || l.src[l.off] == '\n' {
			return errf(pos, "unterminated string literal")
		}
		ch := l.src[l.off]
		l.off++
		if ch == '"' {
			break
		}
		if ch != '\\' {
			if escaped {
				b.WriteByte(ch)
			}
			continue
		}
		if !escaped {
			escaped = true
			b.WriteString(l.src[start : l.off-1])
		}
		if l.off >= len(l.src) {
			return errf(pos, "unterminated escape")
		}
		esc, n := utf8.DecodeRuneInString(l.src[l.off:])
		l.off += n
		switch esc {
		case 'n':
			b.WriteByte('\n')
		case 't':
			b.WriteByte('\t')
		case '"', '\\':
			b.WriteByte(byte(esc))
		default:
			return errf(pos, "bad escape \\%c", esc)
		}
	}
	if !escaped {
		*t = Token{Kind: TokStringLit, Text: l.src[start : l.off-1], Pos: pos}
		return nil
	}
	*t = Token{Kind: TokStringLit, Text: b.String(), Pos: pos}
	return nil
}
