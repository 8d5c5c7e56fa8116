package lang

// File is a parsed MiniJP compilation unit.
type File struct {
	Classes []*ClassDecl
}

// ClassDecl declares a (possibly remote) class.
type ClassDecl struct {
	Pos     Pos
	Name    string
	Remote  bool
	Extends string // "" for none
	Fields  []*FieldDecl
	Methods []*MethodDecl

	Super *ClassDecl // resolved by the checker

	// self is the one ClassType naming this class; Check points it
	// back at the declaration before anything asks for it.
	self ClassType
}

// Type returns the class's type. Every reference to a checked class
// shares it, so resolving a type name allocates nothing.
func (c *ClassDecl) Type() *ClassType { return &c.self }

// FieldByName finds a field in the class chain.
func (c *ClassDecl) FieldByName(name string) *FieldDecl {
	for x := c; x != nil; x = x.Super {
		for _, f := range x.Fields {
			if f.Name == name {
				return f
			}
		}
	}
	return nil
}

// MethodByName finds a method in the class chain.
func (c *ClassDecl) MethodByName(name string) *MethodDecl {
	for x := c; x != nil; x = x.Super {
		for _, m := range x.Methods {
			if m.Name == name {
				return m
			}
		}
	}
	return nil
}

// IsSubclassOf reports whether c is t or a subclass of t.
func (c *ClassDecl) IsSubclassOf(t *ClassDecl) bool {
	for x := c; x != nil; x = x.Super {
		if x == t {
			return true
		}
	}
	return false
}

// TypeExpr is a syntactic type reference, resolved by the checker.
type TypeExpr struct {
	Pos  Pos
	Name string // "int", "double", "boolean", "String", "void" or a class name
	Dims int    // trailing [] pairs
}

// FieldDecl declares a field.
type FieldDecl struct {
	Pos    Pos
	Name   string
	Static bool
	TypeX  TypeExpr
	Type   Type // resolved

	Owner *ClassDecl

	qualified string // Owner.name, cached by Check
}

// QualifiedName is Class.field. Check builds it once: callers key maps
// by it in their inner loops.
func (f *FieldDecl) QualifiedName() string {
	if f.qualified == "" {
		return f.Owner.Name + "." + f.Name
	}
	return f.qualified
}

// MethodDecl declares a method or constructor (IsCtor).
type MethodDecl struct {
	Pos    Pos
	Name   string
	Static bool
	IsCtor bool
	Params []*Param
	RetX   TypeExpr
	Ret    Type // VoidType for void and constructors
	Body   *Block

	Class *ClassDecl
}

// QualifiedName is Class.method.
func (m *MethodDecl) QualifiedName() string { return m.Class.Name + "." + m.Name }

// Param is a formal parameter.
type Param struct {
	Pos   Pos
	Name  string
	TypeX TypeExpr
	Type  Type // resolved
}

// --- statements -----------------------------------------------------

// Stmt is a statement node.
type Stmt interface{ stmtNode() }

// Block is { stmt* }.
type Block struct {
	Pos   Pos
	Stmts []Stmt
}

// VarDecl is `T x = init;`.
type VarDecl struct {
	Pos   Pos
	Name  string
	TypeX TypeExpr
	Type  Type // resolved
	Init  Expr // may be nil
}

// If is if/else.
type If struct {
	Pos  Pos
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// While is a while loop.
type While struct {
	Pos  Pos
	Cond Expr
	Body Stmt
}

// For is for(init; cond; post).
type For struct {
	Pos  Pos
	Init Stmt // VarDecl or ExprStmt, may be nil
	Cond Expr // may be nil
	Post Expr // may be nil
	Body Stmt
}

// Return is `return e?;`.
type Return struct {
	Pos   Pos
	Value Expr // may be nil
}

// ExprStmt is an expression used as a statement (call or assignment).
type ExprStmt struct {
	Pos Pos
	X   Expr
}

func (*Block) stmtNode()    {}
func (*VarDecl) stmtNode()  {}
func (*If) stmtNode()       {}
func (*While) stmtNode()    {}
func (*For) stmtNode()      {}
func (*Return) stmtNode()   {}
func (*ExprStmt) stmtNode() {}

// --- expressions ------------------------------------------------------

// Expr is an expression node; the checker fills in T.
type Expr interface {
	exprNode()
	TypeOf() Type
	ExprPos() Pos
}

type exprBase struct {
	Pos Pos
	T   Type
}

func (e *exprBase) exprNode()      {}
func (e *exprBase) TypeOf() Type   { return e.T }
func (e *exprBase) ExprPos() Pos   { return e.Pos }
func (e *exprBase) setType(t Type) { e.T = t }

// IntLit is an integer literal.
type IntLit struct {
	exprBase
	Value int64
}

// DoubleLit is a floating-point literal.
type DoubleLit struct {
	exprBase
	Value float64
}

// BoolLit is true/false.
type BoolLit struct {
	exprBase
	Value bool
}

// StringLit is a string literal.
type StringLit struct {
	exprBase
	Value string
}

// NullLit is null.
type NullLit struct{ exprBase }

// This is the receiver.
type This struct {
	exprBase
	Class *ClassDecl // resolved
}

// IdentKind classifies what a bare identifier resolved to.
type IdentKind int

const (
	IdentLocal IdentKind = iota
	IdentField           // implicit this.f or static field of the class
	IdentClass           // class name (receiver of a static call/field)
)

// Ident is a bare identifier.
type Ident struct {
	exprBase
	Name string

	Kind  IdentKind
	Field *FieldDecl // IdentField
	Class *ClassDecl // IdentClass
}

// FieldAccess is x.f.
type FieldAccess struct {
	exprBase
	X    Expr
	Name string

	Field *FieldDecl // resolved; nil for array .length
	IsLen bool       // x.length on an array
}

// Index is x[i].
type Index struct {
	exprBase
	X Expr
	I Expr
}

// Call is x.m(args), Class.m(args) or m(args).
type Call struct {
	exprBase
	Recv Expr // nil for bare/static-on-own-class calls
	Name string
	Args []Expr

	Method *MethodDecl // resolved
	// Remote reports whether the callee's class is remote and the
	// call is therefore an RMI.
	Remote bool
	// SiteID is a program-unique id for this textual call site,
	// assigned by the checker (the unit of the paper's call-site
	// specific code generation).
	SiteID int
}

// New is `new C(args)`.
type New struct {
	exprBase
	ClassName string
	Args      []Expr

	Class *ClassDecl
	Ctor  *MethodDecl // may be nil (default constructor)
	// AllocID is a program-unique allocation site number, assigned by
	// the checker (the paper's §2 step 2).
	AllocID int
}

// NewArray is `new T[e1][e2]...[]...`.
type NewArray struct {
	exprBase
	ElemX TypeExpr // base element type name (no dims)
	Elem  Type     // resolved base element type
	Lens  []Expr   // sized dimensions
	Dims  int      // total dimensions (len(Lens) + unsized trailing)

	// AllocIDs has one allocation site number per sized dimension
	// (outermost first): `new double[16][16]` is two allocation sites,
	// matching Figure 2's separate nodes per array level.
	AllocIDs []int
}

// Binary is a binary operation.
type Binary struct {
	exprBase
	Op   string
	L, R Expr
}

// Unary is -x or !x.
type Unary struct {
	exprBase
	Op string
	X  Expr
}

// Assign is lhs = rhs (lhs: Ident, FieldAccess or Index).
type Assign struct {
	exprBase
	LHS Expr
	RHS Expr
}
