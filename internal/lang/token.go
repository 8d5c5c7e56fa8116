// Package lang implements MiniJP, a small Java-like source language
// with JavaParty's `remote class` marker. It is the input language of
// the optimizing RMI compiler: classes, fields, (static) methods,
// constructors, arrays, loops and calls — exactly the features the
// paper's heap analysis consumes (allocation sites, field assignments,
// calls, remote calls).
package lang

import (
	"fmt"
	"strconv"
)

// Pos is a source position: a line and a byte column, both from 1.
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// TokKind enumerates token kinds. Every punctuation mark, operator and
// keyword is a kind of its own.
type TokKind uint8

const (
	TokEOF TokKind = iota
	TokIdent
	TokIntLit
	TokDoubleLit
	TokStringLit

	TokLParen
	TokRParen
	TokLBrace
	TokRBrace
	TokLBrack
	TokRBrack
	TokSemi
	TokComma
	TokDot

	TokAssign
	TokEq
	TokNot
	TokNe
	TokLt
	TokLe
	TokGt
	TokGe
	TokAdd
	TokAddAssign
	TokInc
	TokSub
	TokSubAssign
	TokDec
	TokMul
	TokDiv
	TokRem
	TokAndAnd
	TokOrOr

	TokClass
	TokExtends
	TokRemote
	TokStatic
	TokNew
	TokIf
	TokElse
	TokWhile
	TokFor
	TokReturn
	TokTrue
	TokFalse
	TokNull
	TokThis
	TokInt
	TokDouble
	TokBoolean
	TokString
	TokVoid

	// tokBad stands where the lexer failed. Only the parser's
	// look-ahead window holds one; it matches nothing in the grammar.
	tokBad
)

// spelling is the source text of each punctuation mark, operator and
// keyword, and "" for the other kinds: error text names tokens by it,
// and the parser takes Binary and Unary operators from it.
var spelling = [tokBad + 1]string{
	TokLParen: "(", TokRParen: ")", TokLBrace: "{", TokRBrace: "}", TokLBrack: "[", TokRBrack: "]",
	TokSemi: ";", TokComma: ",", TokDot: ".",
	TokAssign: "=", TokEq: "==", TokNot: "!", TokNe: "!=", TokLt: "<", TokLe: "<=", TokGt: ">", TokGe: ">=",
	TokAdd: "+", TokAddAssign: "+=", TokInc: "++", TokSub: "-", TokSubAssign: "-=", TokDec: "--",
	TokMul: "*", TokDiv: "/", TokRem: "%", TokAndAnd: "&&", TokOrOr: "||",
	TokClass: "class", TokExtends: "extends", TokRemote: "remote", TokStatic: "static", TokNew: "new",
	TokIf: "if", TokElse: "else", TokWhile: "while", TokFor: "for", TokReturn: "return",
	TokTrue: "true", TokFalse: "false", TokNull: "null", TokThis: "this",
	TokInt: "int", TokDouble: "double", TokBoolean: "boolean", TokString: "String", TokVoid: "void",
}

// Token is one lexical token. Text is the token's source text, and
// for a string literal its value with escapes resolved.
type Token struct {
	Kind TokKind
	Text string
	Pos  Pos
}

// ends reports whether t is the last token the lexer will produce.
func (t Token) ends() bool { return t.Kind == TokEOF || t.Kind == tokBad }

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of file"
	case TokIdent, TokIntLit, TokDoubleLit, TokStringLit:
		return strconv.Quote(t.Text)
	}
	return strconv.Quote(spelling[t.Kind])
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
