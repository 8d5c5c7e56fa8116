package lang

import (
	"strconv"

	"cormi/internal/slab"
)

// Parse lexes and parses a MiniJP compilation unit. Tokens are pulled
// from the lexer as the grammar asks for them, so the first error in
// source order is the one reported, lexical or syntactic.
func Parse(src string) (f *File, err error) {
	p := &parser{lex: newLexer(src)}
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(*Error)
			if !ok {
				panic(r)
			}
			// Every syntax error is raised with the offending token
			// current; when that token is the lexer's failure, the
			// lexical error is the cause.
			if p.tok.Kind == tokBad {
				e = p.lexErr
			}
			f, err = nil, e
		}
	}()
	p.scan(&p.tok)
	f = &File{}
	for !p.atEOF() {
		f.Classes = p.classPtrs.Append(f.Classes, p.classDecl())
	}
	return f, nil
}

// parser is recursive descent over the pulled tokens. A syntax error
// panics with its *Error, which Parse recovers and returns.
type parser struct {
	lex lexer
	tok Token // the current token
	// peeked[head:] are the tokens after tok that the grammar has
	// looked ahead at and not yet consumed: one or two, except that an
	// array-typed declaration peeks past all its [] pairs.
	peeked []Token
	head   int
	lexErr *Error // what the lexer failed with; the tokens then end in a tokBad

	nodes
}

// nodes are the slabs the AST is carved from, one per node type, plus
// those of the lists that hang off nodes. The parser owns them; the
// File keeps them alive.
type nodes struct {
	classes       slab.Of[ClassDecl]
	fields        slab.Of[FieldDecl]
	methods       slab.Of[MethodDecl]
	params        slab.Of[Param]
	blocks        slab.Of[Block]
	varDecls      slab.Of[VarDecl]
	ifs           slab.Of[If]
	whiles        slab.Of[While]
	fors          slab.Of[For]
	returns       slab.Of[Return]
	exprStmts     slab.Of[ExprStmt]
	intLits       slab.Of[IntLit]
	doubleLits    slab.Of[DoubleLit]
	boolLits      slab.Of[BoolLit]
	stringLits    slab.Of[StringLit]
	nullLits      slab.Of[NullLit]
	thises        slab.Of[This]
	idents        slab.Of[Ident]
	fieldAccesses slab.Of[FieldAccess]
	indexes       slab.Of[Index]
	calls         slab.Of[Call]
	news          slab.Of[New]
	newArrays     slab.Of[NewArray]
	binaries      slab.Of[Binary]
	unaries       slab.Of[Unary]
	assigns       slab.Of[Assign]

	classPtrs  slab.Of[*ClassDecl]
	fieldPtrs  slab.Of[*FieldDecl]
	methodPtrs slab.Of[*MethodDecl]
	paramPtrs  slab.Of[*Param]
	stmts      slab.Of[Stmt]
	exprs      slab.Of[Expr]
}

// scan pulls the next token from the lexer into t. Where the lexer
// fails it stores a tokBad, which like TokEOF ends the input: neither
// is ever scanned past.
func (p *parser) scan(t *Token) {
	if err := p.lex.next(t); err != nil {
		p.lexErr = err
		*t = Token{Kind: tokBad, Pos: err.Pos}
	}
}

// at returns the token k places after the current one, lexing up to
// it. The token that ends the input repeats for every k beyond it.
func (p *parser) at(k int) Token {
	if k == 0 {
		return p.tok
	}
	for len(p.peeked)-p.head < k {
		last := p.tok
		if n := len(p.peeked); n > p.head {
			last = p.peeked[n-1]
		}
		if !last.ends() {
			p.scan(&last)
		}
		if p.head > 0 && len(p.peeked) == cap(p.peeked) {
			p.peeked = p.peeked[:copy(p.peeked, p.peeked[p.head:])]
			p.head = 0
		}
		p.peeked = append(p.peeked, last)
	}
	return p.peeked[p.head+k-1]
}

func (p *parser) atEOF() bool { return p.tok.Kind == TokEOF }

func (p *parser) advance() Token {
	t := p.tok
	switch {
	case t.ends():
	case p.head < len(p.peeked):
		p.tok = p.peeked[p.head]
		if p.head++; p.head == len(p.peeked) {
			p.peeked, p.head = p.peeked[:0], 0
		}
	default:
		p.scan(&p.tok)
	}
	return t
}

func (p *parser) is(k TokKind) bool { return p.tok.Kind == k }

func (p *parser) accept(k TokKind) bool {
	if p.tok.Kind == k {
		p.advance()
		return true
	}
	return false
}

// expect consumes a token of kind k: a punctuation mark, an operator,
// a keyword or an identifier.
func (p *parser) expect(k TokKind) Token {
	if p.tok.Kind != k {
		want := strconv.Quote(spelling[k])
		if k == TokIdent {
			want = "identifier"
		}
		panic(errf(p.tok.Pos, "expected %s, found %s", want, p.tok))
	}
	return p.advance()
}

// typeName is the type name t spells, or "" when t cannot begin a type.
func typeName(t Token) string {
	switch t.Kind {
	case TokIdent:
		return t.Text
	case TokInt, TokDouble, TokBoolean, TokString, TokVoid:
		return spelling[t.Kind]
	}
	return ""
}

// typeExpr parses `name ([])*`.
func (p *parser) typeExpr() TypeExpr {
	t := p.tok
	te := TypeExpr{Pos: t.Pos, Name: typeName(t)}
	if te.Name == "" {
		panic(errf(t.Pos, "expected type, found %s", t))
	}
	p.advance()
	for p.is(TokLBrack) && p.at(1).Kind == TokRBrack {
		p.advance()
		p.advance()
		te.Dims++
	}
	return te
}

func (p *parser) classDecl() *ClassDecl {
	start := p.tok.Pos
	remote := p.accept(TokRemote)
	p.expect(TokClass)
	c := p.classes.Put(ClassDecl{Pos: start, Name: p.expect(TokIdent).Text, Remote: remote})
	if p.accept(TokExtends) {
		c.Extends = p.expect(TokIdent).Text
	}
	p.expect(TokLBrace)
	for !p.accept(TokRBrace) {
		if p.atEOF() {
			panic(errf(c.Pos, "unterminated class %s", c.Name))
		}
		p.member(c)
	}
	return c
}

// member parses a field, method or constructor into c.
func (p *parser) member(c *ClassDecl) {
	pos := p.tok.Pos
	static := p.accept(TokStatic)
	var m *MethodDecl
	if p.is(TokIdent) && p.tok.Text == c.Name && p.at(1).Kind == TokLParen {
		// Constructor: ClassName (
		if static {
			panic(errf(pos, "constructor cannot be static"))
		}
		m = p.methods.Put(MethodDecl{Pos: pos, Name: p.advance().Text, IsCtor: true,
			RetX: TypeExpr{Pos: pos, Name: "void"}, Class: c})
	} else {
		te := p.typeExpr()
		name := p.expect(TokIdent)
		if !p.is(TokLParen) {
			p.expect(TokSemi)
			c.Fields = p.fieldPtrs.Append(c.Fields, p.fields.Put(FieldDecl{Pos: pos, Name: name.Text, Static: static, TypeX: te, Owner: c}))
			return
		}
		m = p.methods.Put(MethodDecl{Pos: pos, Name: name.Text, Static: static, RetX: te, Class: c})
	}
	p.expect(TokLParen)
	for !p.accept(TokRParen) {
		if len(m.Params) > 0 {
			p.expect(TokComma)
		}
		te := p.typeExpr()
		name := p.expect(TokIdent)
		m.Params = p.paramPtrs.Append(m.Params, p.params.Put(Param{Pos: name.Pos, Name: name.Text, TypeX: te}))
	}
	// Abstract/empty bodies are written `{ }`; a bare `;` declares a
	// body-less method (remote interface style).
	if !p.accept(TokSemi) {
		m.Body = p.block()
	}
	c.Methods = p.methodPtrs.Append(c.Methods, m)
}

func (p *parser) block() *Block {
	b := p.blocks.Put(Block{Pos: p.expect(TokLBrace).Pos})
	for !p.accept(TokRBrace) {
		if p.atEOF() {
			panic(errf(b.Pos, "unterminated block"))
		}
		b.Stmts = p.stmts.Append(b.Stmts, p.stmt())
	}
	return b
}

// startsVarDecl disambiguates `T x ...` declarations from expressions
// at statement start.
func (p *parser) startsVarDecl() bool {
	switch p.tok.Kind {
	case TokInt, TokDouble, TokBoolean, TokString:
		return true
	case TokIdent:
		// IDENT ([ ])* IDENT is a declaration; IDENT [ expr is an
		// index expression.
		j := 1
		for p.at(j).Kind == TokLBrack && p.at(j+1).Kind == TokRBrack {
			j += 2
		}
		return p.at(j).Kind == TokIdent
	}
	return false
}

func (p *parser) stmt() Stmt {
	pos := p.tok.Pos
	switch p.tok.Kind {
	case TokLBrace:
		return p.block()
	case TokIf:
		p.advance()
		cond := p.parenExpr()
		s := p.ifs.Put(If{Pos: pos, Cond: cond, Then: p.stmt()})
		if p.accept(TokElse) {
			s.Else = p.stmt()
		}
		return s
	case TokWhile:
		p.advance()
		cond := p.parenExpr()
		return p.whiles.Put(While{Pos: pos, Cond: cond, Body: p.stmt()})
	case TokFor:
		return p.forStmt()
	case TokReturn:
		p.advance()
		s := p.returns.Put(Return{Pos: pos})
		if !p.is(TokSemi) {
			s.Value = p.expr()
		}
		p.expect(TokSemi)
		return s
	}
	var s Stmt
	if p.startsVarDecl() {
		s = p.varDecl()
	} else {
		s = p.exprStmts.Put(ExprStmt{Pos: pos, X: p.expr()})
	}
	p.expect(TokSemi)
	return s
}

func (p *parser) varDecl() *VarDecl {
	pos := p.tok.Pos
	te := p.typeExpr()
	d := p.varDecls.Put(VarDecl{Pos: pos, Name: p.expect(TokIdent).Text, TypeX: te})
	if p.accept(TokAssign) {
		d.Init = p.expr()
	}
	return d
}

func (p *parser) forStmt() Stmt {
	pos := p.advance().Pos // "for"
	p.expect(TokLParen)
	s := p.fors.Put(For{Pos: pos})
	switch {
	case p.is(TokSemi):
	case p.startsVarDecl():
		s.Init = p.varDecl()
	default:
		s.Init = p.exprStmts.Put(ExprStmt{Pos: pos, X: p.expr()})
	}
	p.expect(TokSemi)
	if !p.is(TokSemi) {
		s.Cond = p.expr()
	}
	p.expect(TokSemi)
	if !p.is(TokRParen) {
		s.Post = p.expr()
	}
	p.expect(TokRParen)
	s.Body = p.stmt()
	return s
}

// --- expressions, precedence climbing --------------------------------

// expr parses an assignment, which is right-associative, or a binary
// expression.
func (p *parser) expr() Expr {
	lhs := p.binary(1)
	op := p.tok
	var rhs Expr
	switch op.Kind {
	case TokAssign:
		p.advance()
		rhs = p.expr()
	case TokAddAssign, TokSubAssign:
		p.advance()
		rhs = p.arith(op, lhs, p.expr())
	case TokInc, TokDec:
		// Postfix increment/decrement, desugared to `x = x ± 1` (the
		// value of the expression is the updated one; MiniJP only
		// allows these as statements, which the checker enforces by
		// accepting Assign in statement position).
		p.advance()
		rhs = p.arith(op, lhs, p.intLits.Put(IntLit{exprBase: exprBase{Pos: op.Pos}, Value: 1}))
	default:
		return lhs
	}
	return p.assigns.Put(Assign{exprBase: exprBase{Pos: op.Pos}, LHS: lhs, RHS: rhs})
}

// arith is the `lhs ± rhs` that the compound assignment op stands for.
func (p *parser) arith(op Token, lhs, rhs Expr) Expr {
	sign := TokAdd
	if op.Kind == TokSubAssign || op.Kind == TokDec {
		sign = TokSub
	}
	return p.binaries.Put(Binary{exprBase: exprBase{Pos: op.Pos}, Op: spelling[sign], L: lhs, R: rhs})
}

// binLevels lists the binary operators one precedence level a row,
// from the loosest.
var binLevels = [...][]TokKind{
	{TokOrOr},
	{TokAndAnd},
	{TokEq, TokNe},
	{TokLt, TokLe, TokGt, TokGe},
	{TokAdd, TokSub},
	{TokMul, TokDiv, TokRem},
}

// binPrec is each binary operator's level in binLevels, from 1, and 0
// for every kind that is not one.
var binPrec = func() (prec [tokBad + 1]int8) {
	for i, level := range binLevels {
		for _, k := range level {
			prec[k] = int8(i + 1)
		}
	}
	return prec
}()

// binary parses unary operands joined by binary operators of
// precedence min or tighter, each level left-associative.
func (p *parser) binary(min int8) Expr {
	x := p.unary()
	for {
		op := p.tok
		prec := binPrec[op.Kind]
		if prec < min {
			return x
		}
		p.advance()
		x = p.binaries.Put(Binary{exprBase: exprBase{Pos: op.Pos}, Op: spelling[op.Kind], L: x, R: p.binary(prec + 1)})
	}
}

func (p *parser) unary() Expr {
	if op := p.tok; op.Kind == TokSub || op.Kind == TokNot {
		p.advance()
		return p.unaries.Put(Unary{exprBase: exprBase{Pos: op.Pos}, Op: spelling[op.Kind], X: p.unary()})
	}
	x := p.primary()
	for {
		switch p.tok.Kind {
		case TokDot:
			p.advance()
			name := p.expect(TokIdent)
			at := exprBase{Pos: name.Pos}
			if p.is(TokLParen) {
				x = p.calls.Put(Call{exprBase: at, Recv: x, Name: name.Text, Args: p.args()})
			} else {
				x = p.fieldAccesses.Put(FieldAccess{exprBase: at, X: x, Name: name.Text})
			}
		case TokLBrack:
			at := exprBase{Pos: p.advance().Pos}
			i := p.expr()
			p.expect(TokRBrack)
			x = p.indexes.Put(Index{exprBase: at, X: x, I: i})
		default:
			return x
		}
	}
}

func (p *parser) args() []Expr {
	p.expect(TokLParen)
	var args []Expr
	for !p.accept(TokRParen) {
		if len(args) > 0 {
			p.expect(TokComma)
		}
		args = p.exprs.Append(args, p.expr())
	}
	return args
}

func (p *parser) parenExpr() Expr {
	p.expect(TokLParen)
	x := p.expr()
	p.expect(TokRParen)
	return x
}

func (p *parser) primary() Expr {
	t := p.tok
	at := exprBase{Pos: t.Pos}
	switch t.Kind {
	case TokIntLit:
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			panic(errf(t.Pos, "bad int literal %s", t.Text))
		}
		p.advance()
		return p.intLits.Put(IntLit{exprBase: at, Value: v})
	case TokDoubleLit:
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			panic(errf(t.Pos, "bad double literal %s", t.Text))
		}
		p.advance()
		return p.doubleLits.Put(DoubleLit{exprBase: at, Value: v})
	case TokStringLit:
		p.advance()
		return p.stringLits.Put(StringLit{exprBase: at, Value: t.Text})
	case TokTrue, TokFalse:
		p.advance()
		return p.boolLits.Put(BoolLit{exprBase: at, Value: t.Kind == TokTrue})
	case TokNull:
		p.advance()
		return p.nullLits.Put(NullLit{exprBase: at})
	case TokThis:
		p.advance()
		return p.thises.Put(This{exprBase: at})
	case TokNew:
		return p.newExpr()
	case TokLParen:
		return p.parenExpr()
	case TokIdent:
		p.advance()
		if p.is(TokLParen) {
			return p.calls.Put(Call{exprBase: at, Name: t.Text, Args: p.args()})
		}
		return p.idents.Put(Ident{exprBase: at, Name: t.Text})
	}
	panic(errf(t.Pos, "unexpected token %s", t))
}

func (p *parser) newExpr() Expr {
	at := exprBase{Pos: p.advance().Pos} // "new"
	t := p.tok
	name := typeName(t)
	if name == "" || t.Kind == TokVoid {
		panic(errf(t.Pos, "expected type after new"))
	}
	p.advance()

	// new C(args)
	if p.is(TokLParen) {
		if t.Kind != TokIdent {
			panic(errf(t.Pos, "cannot construct primitive %s", name))
		}
		return p.news.Put(New{exprBase: at, ClassName: name, Args: p.args()})
	}

	// new T[len]...[]...
	e := p.newArrays.Put(NewArray{exprBase: at, ElemX: TypeExpr{Pos: t.Pos, Name: name}})
	if !p.is(TokLBrack) {
		panic(errf(p.tok.Pos, "expected ( or [ after new %s", name))
	}
	for p.accept(TokLBrack) {
		if p.accept(TokRBrack) {
			// Unsized trailing dimension.
			e.Dims++
			continue
		}
		if len(e.Lens) < e.Dims {
			panic(errf(p.tok.Pos, "sized dimension after unsized one"))
		}
		e.Lens = p.exprs.Append(e.Lens, p.expr())
		p.expect(TokRBrack)
		e.Dims++
	}
	return e
}
