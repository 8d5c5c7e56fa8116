package lang

// The MiniJP lexer and parser as they were before tokens were typed:
// every punctuation mark, operator and keyword one string-valued kind,
// compared by text, and binary expressions parsed one precedence level
// at a time. Kept as the oracle TestParseDifferential holds Parse to:
// on ASCII input the two must build the same AST, positions included,
// or fail with the same error.

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

type refKind int

const (
	refEOF refKind = iota
	refIdent
	refIntLit
	refDoubleLit
	refStringLit
	refPunct   // one of ( ) { } [ ] ; , .
	refOp      // operators: = == != < <= > >= + - * / % && || ! ++ -- += -=
	refKeyword // reserved words
	refBad
)

type refToken struct {
	Kind refKind
	Text string
	Pos  Pos
}

func (t refToken) ends() bool { return t.Kind == refEOF || t.Kind == refBad }

func (t refToken) String() string {
	if t.Kind == refEOF {
		return "end of file"
	}
	return fmt.Sprintf("%q", t.Text)
}

var refKeywords = map[string]bool{
	"class": true, "extends": true, "remote": true, "static": true,
	"new": true, "if": true, "else": true, "while": true, "for": true,
	"return": true, "true": true, "false": true, "null": true,
	"this": true, "int": true, "double": true, "boolean": true,
	"String": true, "void": true,
}

// refLexer is the whole lexical state: a position in src. next produces
// one token per call; after an error it must not be called again.
type refLexer struct {
	src       string
	off       int
	line, col int
}

func newRefLexer(src string) refLexer { return refLexer{src: src, line: 1, col: 1} }

func (l *refLexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

func (l *refLexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *refLexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *refLexer) advance() byte {
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

func (l *refLexer) skipSpaceAndComments() *Error {
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

func refIsIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func refIsIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

func (l *refLexer) next() (refToken, *Error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return refToken{}, err
	}
	pos := l.pos()
	if l.off >= len(l.src) {
		return refToken{Kind: refEOF, Pos: pos}, nil
	}
	c := l.peek()
	switch {
	case refIsIdentStart(c):
		start := l.off
		for l.off < len(l.src) && refIsIdentPart(l.peek()) {
			l.advance()
		}
		text := l.src[start:l.off]
		kind := refIdent
		if refKeywords[text] {
			kind = refKeyword
		}
		return refToken{Kind: kind, Text: text, Pos: pos}, nil

	case unicode.IsDigit(rune(c)):
		start := l.off
		for l.off < len(l.src) && unicode.IsDigit(rune(l.peek())) {
			l.advance()
		}
		kind := refIntLit
		if l.peek() == '.' && unicode.IsDigit(rune(l.peek2())) {
			kind = refDoubleLit
			l.advance()
			for l.off < len(l.src) && unicode.IsDigit(rune(l.peek())) {
				l.advance()
			}
		}
		if l.peek() == 'e' || l.peek() == 'E' {
			kind = refDoubleLit
			l.advance()
			if l.peek() == '+' || l.peek() == '-' {
				l.advance()
			}
			if !unicode.IsDigit(rune(l.peek())) {
				return refToken{}, errf(l.pos(), "malformed exponent")
			}
			for l.off < len(l.src) && unicode.IsDigit(rune(l.peek())) {
				l.advance()
			}
		}
		return refToken{Kind: kind, Text: l.src[start:l.off], Pos: pos}, nil

	case c == '"':
		l.advance()
		var b strings.Builder
		for {
			if l.off >= len(l.src) || l.peek() == '\n' {
				return refToken{}, errf(pos, "unterminated string literal")
			}
			ch := l.advance()
			if ch == '"' {
				break
			}
			if ch == '\\' {
				if l.off >= len(l.src) {
					return refToken{}, errf(pos, "unterminated escape")
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
					return refToken{}, errf(pos, "bad escape \\%c", esc)
				}
				continue
			}
			b.WriteByte(ch)
		}
		return refToken{Kind: refStringLit, Text: b.String(), Pos: pos}, nil

	case strings.IndexByte("(){}[];,.", c) >= 0:
		l.advance()
		return refToken{Kind: refPunct, Text: l.src[l.off-1 : l.off], Pos: pos}, nil

	default:
		// Operators, longest match first.
		for _, op := range []string{"==", "!=", "<=", ">=", "&&", "||",
			"++", "--", "+=", "-=",
			"=", "<", ">", "+", "-", "*", "/", "%", "!"} {
			if strings.HasPrefix(l.src[l.off:], op) {
				for range op {
					l.advance()
				}
				return refToken{Kind: refOp, Text: op, Pos: pos}, nil
			}
		}
		return refToken{}, errf(pos, "unexpected character %q", string(c))
	}
}

// refParse lexes and parses a MiniJP compilation unit. Tokens are pulled
// from the refLexer as the grammar asks for them, so the first error in
// source order is the one reported, lexical or syntactic.
func refParse(src string) (*File, error) {
	p := &refParser{lex: newRefLexer(src)}
	p.tok = p.scan()
	f := &File{}
	for !p.atEOF() {
		c, err := p.classDecl()
		if err != nil {
			// Every syntax error is raised with the offending token
			// current; when that token is the refLexer's failure, the
			// lexical error is the cause.
			if p.tok.Kind == refBad {
				return nil, p.lexErr
			}
			return nil, err
		}
		f.Classes = p.classPtrs.Append(f.Classes, c)
	}
	return f, nil
}

type refParser struct {
	lex refLexer
	tok refToken // the current token
	// peeked[head:] are the tokens after tok that the grammar has
	// looked ahead at and not yet consumed: one or two, except that an
	// array-typed declaration peeks past all its [] pairs.
	peeked []refToken
	head   int
	lexErr error // what the refLexer failed with; the tokens then end in a refBad

	nodes
}

// scan pulls the next token from the refLexer. Where the refLexer fails it
// yields a refBad, which like refEOF ends the input: neither is ever
// scanned past.
func (p *refParser) scan() refToken {
	t, err := p.lex.next()
	if err != nil {
		p.lexErr = err
		return refToken{Kind: refBad, Pos: err.Pos}
	}
	return t
}

// at returns the token k places after the current one, lexing up to
// it. The token that ends the input repeats for every k beyond it.
func (p *refParser) at(k int) refToken {
	if k == 0 {
		return p.tok
	}
	for len(p.peeked)-p.head < k {
		last := p.tok
		if n := len(p.peeked); n > p.head {
			last = p.peeked[n-1]
		}
		if !last.ends() {
			last = p.scan()
		}
		if p.head > 0 && len(p.peeked) == cap(p.peeked) {
			p.peeked = p.peeked[:copy(p.peeked, p.peeked[p.head:])]
			p.head = 0
		}
		p.peeked = append(p.peeked, last)
	}
	return p.peeked[p.head+k-1]
}

func (p *refParser) cur() refToken { return p.tok }
func (p *refParser) atEOF() bool   { return p.tok.Kind == refEOF }

func (p *refParser) advance() refToken {
	t := p.tok
	switch {
	case t.ends():
	case p.head < len(p.peeked):
		p.tok = p.peeked[p.head]
		if p.head++; p.head == len(p.peeked) {
			p.peeked, p.head = p.peeked[:0], 0
		}
	default:
		p.tok = p.scan()
	}
	return t
}

func (p *refParser) is(kind refKind, text string) bool {
	return p.tok.Kind == kind && p.tok.Text == text
}

func (p *refParser) accept(kind refKind, text string) bool {
	if p.is(kind, text) {
		p.advance()
		return true
	}
	return false
}

func (p *refParser) expect(kind refKind, text string) (refToken, error) {
	if p.is(kind, text) {
		return p.advance(), nil
	}
	return refToken{}, errf(p.cur().Pos, "expected %q, found %s", text, p.cur())
}

func (p *refParser) expectIdent() (refToken, error) {
	if p.cur().Kind == refIdent {
		return p.advance(), nil
	}
	return refToken{}, errf(p.cur().Pos, "expected identifier, found %s", p.cur())
}

// typeNameStarts reports whether the current token can begin a type.
func (p *refParser) typeNameStarts() bool {
	t := p.cur()
	if t.Kind == refIdent {
		return true
	}
	if t.Kind == refKeyword {
		switch t.Text {
		case "int", "double", "boolean", "String", "void":
			return true
		}
	}
	return false
}

// typeExpr parses `name ([])*`.
func (p *refParser) typeExpr() (TypeExpr, error) {
	t := p.cur()
	if !p.typeNameStarts() {
		return TypeExpr{}, errf(t.Pos, "expected type, found %s", t)
	}
	p.advance()
	te := TypeExpr{Pos: t.Pos, Name: t.Text}
	for p.is(refPunct, "[") && p.at(1).Kind == refPunct && p.at(1).Text == "]" {
		p.advance()
		p.advance()
		te.Dims++
	}
	return te, nil
}

func (p *refParser) classDecl() (*ClassDecl, error) {
	start := p.cur().Pos
	remote := p.accept(refKeyword, "remote")
	if _, err := p.expect(refKeyword, "class"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	c := p.classes.Put(ClassDecl{Pos: start, Name: name.Text, Remote: remote})
	if p.accept(refKeyword, "extends") {
		sup, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		c.Extends = sup.Text
	}
	if _, err := p.expect(refPunct, "{"); err != nil {
		return nil, err
	}
	for !p.accept(refPunct, "}") {
		if p.atEOF() {
			return nil, errf(c.Pos, "unterminated class %s", c.Name)
		}
		if err := p.member(c); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// member parses a field, method or constructor into c.
func (p *refParser) member(c *ClassDecl) error {
	pos := p.cur().Pos
	static := p.accept(refKeyword, "static")

	// Constructor: ClassName (
	if p.cur().Kind == refIdent && p.cur().Text == c.Name &&
		p.at(1).Kind == refPunct && p.at(1).Text == "(" {
		name := p.advance()
		m := p.methods.Put(MethodDecl{Pos: pos, Name: name.Text, Static: static, IsCtor: true,
			RetX: TypeExpr{Pos: pos, Name: "void"}, Class: c})
		if static {
			return errf(pos, "constructor cannot be static")
		}
		if err := p.methodRest(m); err != nil {
			return err
		}
		c.Methods = p.methodPtrs.Append(c.Methods, m)
		return nil
	}

	te, err := p.typeExpr()
	if err != nil {
		return err
	}
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if p.is(refPunct, "(") {
		m := p.methods.Put(MethodDecl{Pos: pos, Name: name.Text, Static: static, RetX: te, Class: c})
		if err := p.methodRest(m); err != nil {
			return err
		}
		c.Methods = p.methodPtrs.Append(c.Methods, m)
		return nil
	}
	if _, err := p.expect(refPunct, ";"); err != nil {
		return err
	}
	c.Fields = p.fieldPtrs.Append(c.Fields, p.fields.Put(FieldDecl{Pos: pos, Name: name.Text, Static: static, TypeX: te, Owner: c}))
	return nil
}

func (p *refParser) methodRest(m *MethodDecl) error {
	if _, err := p.expect(refPunct, "("); err != nil {
		return err
	}
	for !p.accept(refPunct, ")") {
		if len(m.Params) > 0 {
			if _, err := p.expect(refPunct, ","); err != nil {
				return err
			}
		}
		te, err := p.typeExpr()
		if err != nil {
			return err
		}
		name, err := p.expectIdent()
		if err != nil {
			return err
		}
		m.Params = p.paramPtrs.Append(m.Params, p.params.Put(Param{Pos: name.Pos, Name: name.Text, TypeX: te}))
	}
	// Abstract/empty bodies are written `{ }`; a bare `;` declares a
	// body-less method (remote interface style).
	if p.accept(refPunct, ";") {
		return nil
	}
	body, err := p.block()
	if err != nil {
		return err
	}
	m.Body = body
	return nil
}

func (p *refParser) block() (*Block, error) {
	start, err := p.expect(refPunct, "{")
	if err != nil {
		return nil, err
	}
	b := p.blocks.Put(Block{Pos: start.Pos})
	for !p.accept(refPunct, "}") {
		if p.atEOF() {
			return nil, errf(start.Pos, "unterminated block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = p.stmts.Append(b.Stmts, s)
	}
	return b, nil
}

// startsVarDecl disambiguates `T x ...` declarations from expressions
// at statement start.
func (p *refParser) startsVarDecl() bool {
	t := p.cur()
	if t.Kind == refKeyword {
		switch t.Text {
		case "int", "double", "boolean", "String":
			return true
		}
		return false
	}
	if t.Kind != refIdent {
		return false
	}
	// IDENT IDENT -> declaration with class type.
	if p.at(1).Kind == refIdent {
		return true
	}
	// IDENT [ ] -> array-typed declaration. IDENT [ expr -> index expr.
	j := 1
	for p.at(j).Kind == refPunct && p.at(j).Text == "[" &&
		p.at(j+1).Kind == refPunct && p.at(j+1).Text == "]" {
		j += 2
	}
	return j > 1 && p.at(j).Kind == refIdent
}

func (p *refParser) stmt() (Stmt, error) {
	pos := p.cur().Pos
	switch {
	case p.is(refPunct, "{"):
		return p.block()
	case p.is(refKeyword, "if"):
		p.advance()
		if _, err := p.expect(refPunct, "("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(refPunct, ")"); err != nil {
			return nil, err
		}
		then, err := p.stmt()
		if err != nil {
			return nil, err
		}
		s := p.ifs.Put(If{Pos: pos, Cond: cond, Then: then})
		if p.accept(refKeyword, "else") {
			s.Else, err = p.stmt()
			if err != nil {
				return nil, err
			}
		}
		return s, nil
	case p.is(refKeyword, "while"):
		p.advance()
		if _, err := p.expect(refPunct, "("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(refPunct, ")"); err != nil {
			return nil, err
		}
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		return p.whiles.Put(While{Pos: pos, Cond: cond, Body: body}), nil
	case p.is(refKeyword, "for"):
		return p.forStmt()
	case p.is(refKeyword, "return"):
		p.advance()
		s := p.returns.Put(Return{Pos: pos})
		if !p.is(refPunct, ";") {
			v, err := p.expr()
			if err != nil {
				return nil, err
			}
			s.Value = v
		}
		if _, err := p.expect(refPunct, ";"); err != nil {
			return nil, err
		}
		return s, nil
	case p.startsVarDecl():
		s, err := p.varDecl()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(refPunct, ";"); err != nil {
			return nil, err
		}
		return s, nil
	default:
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(refPunct, ";"); err != nil {
			return nil, err
		}
		return p.exprStmts.Put(ExprStmt{Pos: pos, X: x}), nil
	}
}

func (p *refParser) varDecl() (*VarDecl, error) {
	pos := p.cur().Pos
	te, err := p.typeExpr()
	if err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	d := p.varDecls.Put(VarDecl{Pos: pos, Name: name.Text, TypeX: te})
	if p.accept(refOp, "=") {
		d.Init, err = p.expr()
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}

func (p *refParser) forStmt() (Stmt, error) {
	pos := p.advance().Pos // "for"
	if _, err := p.expect(refPunct, "("); err != nil {
		return nil, err
	}
	s := p.fors.Put(For{Pos: pos})
	if !p.is(refPunct, ";") {
		if p.startsVarDecl() {
			d, err := p.varDecl()
			if err != nil {
				return nil, err
			}
			s.Init = d
		} else {
			x, err := p.expr()
			if err != nil {
				return nil, err
			}
			s.Init = p.exprStmts.Put(ExprStmt{Pos: pos, X: x})
		}
	}
	if _, err := p.expect(refPunct, ";"); err != nil {
		return nil, err
	}
	if !p.is(refPunct, ";") {
		c, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Cond = c
	}
	if _, err := p.expect(refPunct, ";"); err != nil {
		return nil, err
	}
	if !p.is(refPunct, ")") {
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Post = x
	}
	if _, err := p.expect(refPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.stmt()
	if err != nil {
		return nil, err
	}
	s.Body = body
	return s, nil
}

// --- expressions, precedence climbing --------------------------------

func (p *refParser) expr() (Expr, error) { return p.assignExpr() }

func (p *refParser) assignExpr() (Expr, error) {
	lhs, err := p.orExpr()
	if err != nil {
		return nil, err
	}
	switch {
	case p.is(refOp, "="):
		pos := p.advance().Pos
		rhs, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		a := p.assigns.Put(Assign{LHS: lhs, RHS: rhs})
		a.Pos = pos
		return a, nil
	case p.is(refOp, "++"), p.is(refOp, "--"):
		// Postfix increment/decrement, desugared to `x = x ± 1` (the
		// value of the expression is the updated one; MiniJP only
		// allows these as statements, which the checker enforces by
		// accepting Assign in statement position).
		op := p.advance()
		binOp := "+"
		if op.Text == "--" {
			binOp = "-"
		}
		one := p.intLits.Put(IntLit{Value: 1})
		one.Pos = op.Pos
		b := p.binaries.Put(Binary{Op: binOp, L: lhs, R: one})
		b.Pos = op.Pos
		a := p.assigns.Put(Assign{LHS: lhs, RHS: b})
		a.Pos = op.Pos
		return a, nil
	case p.is(refOp, "+="), p.is(refOp, "-="):
		op := p.advance()
		rhs, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		b := p.binaries.Put(Binary{Op: op.Text[:1], L: lhs, R: rhs})
		b.Pos = op.Pos
		a := p.assigns.Put(Assign{LHS: lhs, RHS: b})
		a.Pos = op.Pos
		return a, nil
	}
	return lhs, nil
}

func (p *refParser) binaryLevel(ops []string, next func() (Expr, error)) (Expr, error) {
	l, err := next()
	if err != nil {
		return nil, err
	}
	for {
		matched := false
		for _, op := range ops {
			if p.is(refOp, op) {
				pos := p.advance().Pos
				r, err := next()
				if err != nil {
					return nil, err
				}
				b := p.binaries.Put(Binary{Op: op, L: l, R: r})
				b.Pos = pos
				l = b
				matched = true
				break
			}
		}
		if !matched {
			return l, nil
		}
	}
}

func (p *refParser) orExpr() (Expr, error) {
	return p.binaryLevel([]string{"||"}, p.andExpr)
}

func (p *refParser) andExpr() (Expr, error) {
	return p.binaryLevel([]string{"&&"}, p.eqExpr)
}

func (p *refParser) eqExpr() (Expr, error) {
	return p.binaryLevel([]string{"==", "!="}, p.relExpr)
}

func (p *refParser) relExpr() (Expr, error) {
	return p.binaryLevel([]string{"<=", ">=", "<", ">"}, p.addExpr)
}

func (p *refParser) addExpr() (Expr, error) {
	return p.binaryLevel([]string{"+", "-"}, p.mulExpr)
}

func (p *refParser) mulExpr() (Expr, error) {
	return p.binaryLevel([]string{"*", "/", "%"}, p.unaryExpr)
}

func (p *refParser) unaryExpr() (Expr, error) {
	if p.is(refOp, "-") || p.is(refOp, "!") {
		op := p.advance()
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		u := p.unaries.Put(Unary{Op: op.Text, X: x})
		u.Pos = op.Pos
		return u, nil
	}
	return p.postfixExpr()
}

func (p *refParser) postfixExpr() (Expr, error) {
	x, err := p.primaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.is(refPunct, "."):
			p.advance()
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if p.is(refPunct, "(") {
				args, err := p.args()
				if err != nil {
					return nil, err
				}
				c := p.calls.Put(Call{Recv: x, Name: name.Text, Args: args})
				c.Pos = name.Pos
				x = c
			} else {
				f := p.fieldAccesses.Put(FieldAccess{X: x, Name: name.Text})
				f.Pos = name.Pos
				x = f
			}
		case p.is(refPunct, "["):
			pos := p.advance().Pos
			i, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(refPunct, "]"); err != nil {
				return nil, err
			}
			ix := p.indexes.Put(Index{X: x, I: i})
			ix.Pos = pos
			x = ix
		default:
			return x, nil
		}
	}
}

func (p *refParser) args() ([]Expr, error) {
	if _, err := p.expect(refPunct, "("); err != nil {
		return nil, err
	}
	var args []Expr
	for !p.accept(refPunct, ")") {
		if len(args) > 0 {
			if _, err := p.expect(refPunct, ","); err != nil {
				return nil, err
			}
		}
		a, err := p.expr()
		if err != nil {
			return nil, err
		}
		args = p.exprs.Append(args, a)
	}
	return args, nil
}

func (p *refParser) primaryExpr() (Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == refIntLit:
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, errf(t.Pos, "bad int literal %s", t.Text)
		}
		p.advance()
		e := p.intLits.Put(IntLit{Value: v})
		e.Pos = t.Pos
		return e, nil
	case t.Kind == refDoubleLit:
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, errf(t.Pos, "bad double literal %s", t.Text)
		}
		p.advance()
		e := p.doubleLits.Put(DoubleLit{Value: v})
		e.Pos = t.Pos
		return e, nil
	case t.Kind == refStringLit:
		p.advance()
		e := p.stringLits.Put(StringLit{Value: t.Text})
		e.Pos = t.Pos
		return e, nil
	case p.is(refKeyword, "true"), p.is(refKeyword, "false"):
		p.advance()
		e := p.boolLits.Put(BoolLit{Value: t.Text == "true"})
		e.Pos = t.Pos
		return e, nil
	case p.is(refKeyword, "null"):
		p.advance()
		e := p.nullLits.Put(NullLit{})
		e.Pos = t.Pos
		return e, nil
	case p.is(refKeyword, "this"):
		p.advance()
		e := p.thises.Put(This{})
		e.Pos = t.Pos
		return e, nil
	case p.is(refKeyword, "new"):
		return p.newExpr()
	case p.is(refPunct, "("):
		p.advance()
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(refPunct, ")"); err != nil {
			return nil, err
		}
		return x, nil
	case t.Kind == refIdent:
		p.advance()
		if p.is(refPunct, "(") {
			args, err := p.args()
			if err != nil {
				return nil, err
			}
			c := p.calls.Put(Call{Name: t.Text, Args: args})
			c.Pos = t.Pos
			return c, nil
		}
		e := p.idents.Put(Ident{Name: t.Text})
		e.Pos = t.Pos
		return e, nil
	default:
		return nil, errf(t.Pos, "unexpected token %s", t)
	}
}

func (p *refParser) newExpr() (Expr, error) {
	pos := p.advance().Pos // "new"
	t := p.cur()
	if !p.typeNameStarts() || t.Text == "void" {
		return nil, errf(t.Pos, "expected type after new")
	}
	p.advance()

	// new C(args)
	if p.is(refPunct, "(") {
		if t.Kind != refIdent {
			return nil, errf(t.Pos, "cannot construct primitive %s", t.Text)
		}
		args, err := p.args()
		if err != nil {
			return nil, err
		}
		e := p.news.Put(New{ClassName: t.Text, Args: args})
		e.Pos = pos
		return e, nil
	}

	// new T[len]...[]...
	e := p.newArrays.Put(NewArray{ElemX: TypeExpr{Pos: t.Pos, Name: t.Text}})
	e.Pos = pos
	if !p.is(refPunct, "[") {
		return nil, errf(p.cur().Pos, "expected ( or [ after new %s", t.Text)
	}
	for p.is(refPunct, "[") {
		p.advance()
		if p.accept(refPunct, "]") {
			// Unsized trailing dimension.
			e.Dims++
			continue
		}
		if len(e.Lens) < e.Dims {
			return nil, errf(p.cur().Pos, "sized dimension after unsized one")
		}
		l, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(refPunct, "]"); err != nil {
			return nil, err
		}
		e.Lens = p.exprs.Append(e.Lens, l)
		e.Dims++
	}
	return e, nil
}
