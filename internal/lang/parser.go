package lang

import (
	"strconv"

	"cormi/internal/slab"
)

// Parse lexes and parses a MiniJP compilation unit. Tokens are pulled
// from the lexer as the grammar asks for them, so the first error in
// source order is the one reported, lexical or syntactic.
func Parse(src string) (*File, error) {
	p := &parser{lex: newLexer(src)}
	p.tok = p.scan()
	f := &File{}
	for !p.atEOF() {
		c, err := p.classDecl()
		if err != nil {
			// Every syntax error is raised with the offending token
			// current; when that token is the lexer's failure, the
			// lexical error is the cause.
			if p.tok.Kind == tokBad {
				return nil, p.lexErr
			}
			return nil, err
		}
		f.Classes = p.classPtrs.Append(f.Classes, c)
	}
	return f, nil
}

type parser struct {
	lex lexer
	tok Token // the current token
	// peeked[head:] are the tokens after tok that the grammar has
	// looked ahead at and not yet consumed: one or two, except that an
	// array-typed declaration peeks past all its [] pairs.
	peeked []Token
	head   int
	lexErr error // what the lexer failed with; the tokens then end in a tokBad

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

// scan pulls the next token from the lexer. Where the lexer fails it
// yields a tokBad, which like TokEOF ends the input: neither is ever
// scanned past.
func (p *parser) scan() Token {
	t, err := p.lex.next()
	if err != nil {
		p.lexErr = err
		return Token{Kind: tokBad, Pos: err.Pos}
	}
	return t
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

func (p *parser) cur() Token  { return p.tok }
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
		p.tok = p.scan()
	}
	return t
}

func (p *parser) is(kind TokKind, text string) bool {
	return p.tok.Kind == kind && p.tok.Text == text
}

func (p *parser) accept(kind TokKind, text string) bool {
	if p.is(kind, text) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(kind TokKind, text string) (Token, error) {
	if p.is(kind, text) {
		return p.advance(), nil
	}
	return Token{}, errf(p.cur().Pos, "expected %q, found %s", text, p.cur())
}

func (p *parser) expectIdent() (Token, error) {
	if p.cur().Kind == TokIdent {
		return p.advance(), nil
	}
	return Token{}, errf(p.cur().Pos, "expected identifier, found %s", p.cur())
}

// typeNameStarts reports whether the current token can begin a type.
func (p *parser) typeNameStarts() bool {
	t := p.cur()
	if t.Kind == TokIdent {
		return true
	}
	if t.Kind == TokKeyword {
		switch t.Text {
		case "int", "double", "boolean", "String", "void":
			return true
		}
	}
	return false
}

// typeExpr parses `name ([])*`.
func (p *parser) typeExpr() (TypeExpr, error) {
	t := p.cur()
	if !p.typeNameStarts() {
		return TypeExpr{}, errf(t.Pos, "expected type, found %s", t)
	}
	p.advance()
	te := TypeExpr{Pos: t.Pos, Name: t.Text}
	for p.is(TokPunct, "[") && p.at(1).Kind == TokPunct && p.at(1).Text == "]" {
		p.advance()
		p.advance()
		te.Dims++
	}
	return te, nil
}

func (p *parser) classDecl() (*ClassDecl, error) {
	start := p.cur().Pos
	remote := p.accept(TokKeyword, "remote")
	if _, err := p.expect(TokKeyword, "class"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	c := p.classes.Put(ClassDecl{Pos: start, Name: name.Text, Remote: remote})
	if p.accept(TokKeyword, "extends") {
		sup, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		c.Extends = sup.Text
	}
	if _, err := p.expect(TokPunct, "{"); err != nil {
		return nil, err
	}
	for !p.accept(TokPunct, "}") {
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
func (p *parser) member(c *ClassDecl) error {
	pos := p.cur().Pos
	static := p.accept(TokKeyword, "static")

	// Constructor: ClassName (
	if p.cur().Kind == TokIdent && p.cur().Text == c.Name &&
		p.at(1).Kind == TokPunct && p.at(1).Text == "(" {
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
	if p.is(TokPunct, "(") {
		m := p.methods.Put(MethodDecl{Pos: pos, Name: name.Text, Static: static, RetX: te, Class: c})
		if err := p.methodRest(m); err != nil {
			return err
		}
		c.Methods = p.methodPtrs.Append(c.Methods, m)
		return nil
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return err
	}
	c.Fields = p.fieldPtrs.Append(c.Fields, p.fields.Put(FieldDecl{Pos: pos, Name: name.Text, Static: static, TypeX: te, Owner: c}))
	return nil
}

func (p *parser) methodRest(m *MethodDecl) error {
	if _, err := p.expect(TokPunct, "("); err != nil {
		return err
	}
	for !p.accept(TokPunct, ")") {
		if len(m.Params) > 0 {
			if _, err := p.expect(TokPunct, ","); err != nil {
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
	if p.accept(TokPunct, ";") {
		return nil
	}
	body, err := p.block()
	if err != nil {
		return err
	}
	m.Body = body
	return nil
}

func (p *parser) block() (*Block, error) {
	start, err := p.expect(TokPunct, "{")
	if err != nil {
		return nil, err
	}
	b := p.blocks.Put(Block{Pos: start.Pos})
	for !p.accept(TokPunct, "}") {
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
func (p *parser) startsVarDecl() bool {
	t := p.cur()
	if t.Kind == TokKeyword {
		switch t.Text {
		case "int", "double", "boolean", "String":
			return true
		}
		return false
	}
	if t.Kind != TokIdent {
		return false
	}
	// IDENT IDENT -> declaration with class type.
	if p.at(1).Kind == TokIdent {
		return true
	}
	// IDENT [ ] -> array-typed declaration. IDENT [ expr -> index expr.
	j := 1
	for p.at(j).Kind == TokPunct && p.at(j).Text == "[" &&
		p.at(j+1).Kind == TokPunct && p.at(j+1).Text == "]" {
		j += 2
	}
	return j > 1 && p.at(j).Kind == TokIdent
}

func (p *parser) stmt() (Stmt, error) {
	pos := p.cur().Pos
	switch {
	case p.is(TokPunct, "{"):
		return p.block()
	case p.is(TokKeyword, "if"):
		p.advance()
		if _, err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		then, err := p.stmt()
		if err != nil {
			return nil, err
		}
		s := p.ifs.Put(If{Pos: pos, Cond: cond, Then: then})
		if p.accept(TokKeyword, "else") {
			s.Else, err = p.stmt()
			if err != nil {
				return nil, err
			}
		}
		return s, nil
	case p.is(TokKeyword, "while"):
		p.advance()
		if _, err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		return p.whiles.Put(While{Pos: pos, Cond: cond, Body: body}), nil
	case p.is(TokKeyword, "for"):
		return p.forStmt()
	case p.is(TokKeyword, "return"):
		p.advance()
		s := p.returns.Put(Return{Pos: pos})
		if !p.is(TokPunct, ";") {
			v, err := p.expr()
			if err != nil {
				return nil, err
			}
			s.Value = v
		}
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return s, nil
	case p.startsVarDecl():
		s, err := p.varDecl()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return s, nil
	default:
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return p.exprStmts.Put(ExprStmt{Pos: pos, X: x}), nil
	}
}

func (p *parser) varDecl() (*VarDecl, error) {
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
	if p.accept(TokOp, "=") {
		d.Init, err = p.expr()
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}

func (p *parser) forStmt() (Stmt, error) {
	pos := p.advance().Pos // "for"
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	s := p.fors.Put(For{Pos: pos})
	if !p.is(TokPunct, ";") {
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
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	if !p.is(TokPunct, ";") {
		c, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Cond = c
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	if !p.is(TokPunct, ")") {
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Post = x
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
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

func (p *parser) expr() (Expr, error) { return p.assignExpr() }

func (p *parser) assignExpr() (Expr, error) {
	lhs, err := p.orExpr()
	if err != nil {
		return nil, err
	}
	switch {
	case p.is(TokOp, "="):
		pos := p.advance().Pos
		rhs, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		a := p.assigns.Put(Assign{LHS: lhs, RHS: rhs})
		a.Pos = pos
		return a, nil
	case p.is(TokOp, "++"), p.is(TokOp, "--"):
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
	case p.is(TokOp, "+="), p.is(TokOp, "-="):
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

func (p *parser) binaryLevel(ops []string, next func() (Expr, error)) (Expr, error) {
	l, err := next()
	if err != nil {
		return nil, err
	}
	for {
		matched := false
		for _, op := range ops {
			if p.is(TokOp, op) {
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

func (p *parser) orExpr() (Expr, error) {
	return p.binaryLevel([]string{"||"}, p.andExpr)
}

func (p *parser) andExpr() (Expr, error) {
	return p.binaryLevel([]string{"&&"}, p.eqExpr)
}

func (p *parser) eqExpr() (Expr, error) {
	return p.binaryLevel([]string{"==", "!="}, p.relExpr)
}

func (p *parser) relExpr() (Expr, error) {
	return p.binaryLevel([]string{"<=", ">=", "<", ">"}, p.addExpr)
}

func (p *parser) addExpr() (Expr, error) {
	return p.binaryLevel([]string{"+", "-"}, p.mulExpr)
}

func (p *parser) mulExpr() (Expr, error) {
	return p.binaryLevel([]string{"*", "/", "%"}, p.unaryExpr)
}

func (p *parser) unaryExpr() (Expr, error) {
	if p.is(TokOp, "-") || p.is(TokOp, "!") {
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

func (p *parser) postfixExpr() (Expr, error) {
	x, err := p.primaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.is(TokPunct, "."):
			p.advance()
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if p.is(TokPunct, "(") {
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
		case p.is(TokPunct, "["):
			pos := p.advance().Pos
			i, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokPunct, "]"); err != nil {
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

func (p *parser) args() ([]Expr, error) {
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	var args []Expr
	for !p.accept(TokPunct, ")") {
		if len(args) > 0 {
			if _, err := p.expect(TokPunct, ","); err != nil {
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

func (p *parser) primaryExpr() (Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == TokIntLit:
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, errf(t.Pos, "bad int literal %s", t.Text)
		}
		p.advance()
		e := p.intLits.Put(IntLit{Value: v})
		e.Pos = t.Pos
		return e, nil
	case t.Kind == TokDoubleLit:
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, errf(t.Pos, "bad double literal %s", t.Text)
		}
		p.advance()
		e := p.doubleLits.Put(DoubleLit{Value: v})
		e.Pos = t.Pos
		return e, nil
	case t.Kind == TokStringLit:
		p.advance()
		e := p.stringLits.Put(StringLit{Value: t.Text})
		e.Pos = t.Pos
		return e, nil
	case p.is(TokKeyword, "true"), p.is(TokKeyword, "false"):
		p.advance()
		e := p.boolLits.Put(BoolLit{Value: t.Text == "true"})
		e.Pos = t.Pos
		return e, nil
	case p.is(TokKeyword, "null"):
		p.advance()
		e := p.nullLits.Put(NullLit{})
		e.Pos = t.Pos
		return e, nil
	case p.is(TokKeyword, "this"):
		p.advance()
		e := p.thises.Put(This{})
		e.Pos = t.Pos
		return e, nil
	case p.is(TokKeyword, "new"):
		return p.newExpr()
	case p.is(TokPunct, "("):
		p.advance()
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		return x, nil
	case t.Kind == TokIdent:
		p.advance()
		if p.is(TokPunct, "(") {
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

func (p *parser) newExpr() (Expr, error) {
	pos := p.advance().Pos // "new"
	t := p.cur()
	if !p.typeNameStarts() || t.Text == "void" {
		return nil, errf(t.Pos, "expected type after new")
	}
	p.advance()

	// new C(args)
	if p.is(TokPunct, "(") {
		if t.Kind != TokIdent {
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
	if !p.is(TokPunct, "[") {
		return nil, errf(p.cur().Pos, "expected ( or [ after new %s", t.Text)
	}
	for p.is(TokPunct, "[") {
		p.advance()
		if p.accept(TokPunct, "]") {
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
		if _, err := p.expect(TokPunct, "]"); err != nil {
			return nil, err
		}
		e.Lens = p.exprs.Append(e.Lens, l)
		e.Dims++
	}
	return e, nil
}
