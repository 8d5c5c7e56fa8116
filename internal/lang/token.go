// Package lang implements MiniJP, a small Java-like source language
// with JavaParty's `remote class` marker. It is the input language of
// the optimizing RMI compiler: classes, fields, (static) methods,
// constructors, arrays, loops and calls — exactly the features the
// paper's heap analysis consumes (allocation sites, field assignments,
// calls, remote calls).
package lang

import "fmt"

// Pos is a source position.
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// TokKind enumerates token kinds.
type TokKind int

const (
	TokEOF TokKind = iota
	TokIdent
	TokIntLit
	TokDoubleLit
	TokStringLit
	TokPunct   // one of ( ) { } [ ] ; , .
	TokOp      // operators: = == != < <= > >= + - * / % && || !
	TokKeyword // reserved words

	// tokBad stands where the lexer failed. Only the parser's
	// look-ahead window holds one; it matches nothing in the grammar.
	tokBad
)

// Token is one lexical token.
type Token struct {
	Kind TokKind
	Text string
	Pos  Pos
}

// ends reports whether t is the last token the lexer will produce.
func (t Token) ends() bool { return t.Kind == TokEOF || t.Kind == tokBad }

func (t Token) String() string {
	if t.Kind == TokEOF {
		return "end of file"
	}
	return fmt.Sprintf("%q", t.Text)
}

var keywords = map[string]bool{
	"class": true, "extends": true, "remote": true, "static": true,
	"new": true, "if": true, "else": true, "while": true, "for": true,
	"return": true, "true": true, "false": true, "null": true,
	"this": true, "int": true, "double": true, "boolean": true,
	"String": true, "void": true,
}

// Error is a source-located compile error.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func errf(pos Pos, format string, args ...interface{}) *Error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
