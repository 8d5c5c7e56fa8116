package lang

import "cormi/internal/slab"

// Program is a checked compilation unit: types resolved, allocation
// sites and remote call sites numbered.
type Program struct {
	File    *File
	Classes map[string]*ClassDecl

	// NumAllocSites is the count of allocation site numbers handed out
	// (§2 step 2 assigns each object allocation site a unique number).
	NumAllocSites int
	// RemoteCalls lists every remote call site in program order; the
	// index order matches the assigned SiteIDs.
	RemoteCalls []*Call
}

// Check resolves names and types in f and numbers allocation and
// remote call sites.
func Check(f *File) (*Program, error) {
	c := &checker{
		prog: &Program{File: f, Classes: make(map[string]*ClassDecl, len(f.Classes))},
	}
	if err := c.collect(); err != nil {
		return nil, err
	}
	if err := c.resolveSignatures(); err != nil {
		return nil, err
	}
	for _, cd := range f.Classes {
		for _, m := range cd.Methods {
			if err := c.checkMethod(m); err != nil {
				return nil, err
			}
		}
	}
	return c.prog, nil
}

type checker struct {
	prog *Program

	method *MethodDecl
	// Lexical scopes as one stack of declarations plus the stack
	// height at each open scope; lookup scans from the top, so an
	// inner declaration shadows an outer one.
	locals []local
	marks  []int

	arrays slab.Of[ArrayType]
}

type local struct {
	name string
	typ  Type
}

func (c *checker) collect() error {
	for _, cd := range c.prog.File.Classes {
		if _, dup := c.prog.Classes[cd.Name]; dup {
			return errf(cd.Pos, "duplicate class %s", cd.Name)
		}
		c.prog.Classes[cd.Name] = cd
		cd.self.Decl = cd
	}
	for _, cd := range c.prog.File.Classes {
		if cd.Extends == "" {
			continue
		}
		sup, ok := c.prog.Classes[cd.Extends]
		if !ok {
			return errf(cd.Pos, "class %s extends unknown class %s", cd.Name, cd.Extends)
		}
		cd.Super = sup
	}
	// Detect inheritance cycles.
	for _, cd := range c.prog.File.Classes {
		slow, fast := cd, cd.Super
		for fast != nil {
			if slow == fast {
				return errf(cd.Pos, "inheritance cycle through %s", cd.Name)
			}
			slow = slow.Super
			fast = fast.Super
			if fast != nil {
				fast = fast.Super
			}
		}
	}
	return nil
}

func (c *checker) resolveType(te TypeExpr) (Type, error) {
	var base Type
	switch te.Name {
	case "int":
		base = IntType
	case "double":
		base = DoubleType
	case "boolean":
		base = BooleanType
	case "String":
		base = StringType
	case "void":
		base = VoidType
	default:
		cd, ok := c.prog.Classes[te.Name]
		if !ok {
			return nil, errf(te.Pos, "unknown type %s", te.Name)
		}
		base = cd.Type()
	}
	if te.Dims > 0 && TypeEq(base, VoidType) {
		return nil, errf(te.Pos, "void array")
	}
	for i := 0; i < te.Dims; i++ {
		base = c.arrayOf(base)
	}
	return base, nil
}

func (c *checker) resolveSignatures() error {
	for _, cd := range c.prog.File.Classes {
		seenFields := map[string]bool{}
		for _, fd := range cd.Fields {
			if seenFields[fd.Name] {
				return errf(fd.Pos, "duplicate field %s.%s", cd.Name, fd.Name)
			}
			seenFields[fd.Name] = true
			t, err := c.resolveType(fd.TypeX)
			if err != nil {
				return err
			}
			if TypeEq(t, VoidType) {
				return errf(fd.Pos, "void field %s", fd.Name)
			}
			fd.Type = t
			fd.qualified = cd.Name + "." + fd.Name
		}
		seenMethods := map[string]bool{}
		for _, m := range cd.Methods {
			if seenMethods[m.Name] && !m.IsCtor {
				return errf(m.Pos, "duplicate method %s.%s (no overloading)", cd.Name, m.Name)
			}
			seenMethods[m.Name] = true
			rt, err := c.resolveType(m.RetX)
			if err != nil {
				return err
			}
			m.Ret = rt
			for _, pa := range m.Params {
				pt, err := c.resolveType(pa.TypeX)
				if err != nil {
					return err
				}
				if TypeEq(pt, VoidType) {
					return errf(pa.Pos, "void parameter %s", pa.Name)
				}
				pa.Type = pt
			}
		}
	}
	return nil
}

// --- scopes ----------------------------------------------------------

func (c *checker) arrayOf(elem Type) *ArrayType {
	t := c.arrays.New()
	t.Elem = elem
	return t
}

func (c *checker) push() { c.marks = append(c.marks, len(c.locals)) }
func (c *checker) pop() {
	c.locals = c.locals[:c.marks[len(c.marks)-1]]
	c.marks = c.marks[:len(c.marks)-1]
}

func (c *checker) define(pos Pos, name string, t Type) error {
	for _, l := range c.locals[c.marks[len(c.marks)-1]:] {
		if l.name == name {
			return errf(pos, "redeclared variable %s", name)
		}
	}
	c.locals = append(c.locals, local{name, t})
	return nil
}

func (c *checker) lookupLocal(name string) (Type, bool) {
	for i := len(c.locals) - 1; i >= 0; i-- {
		if c.locals[i].name == name {
			return c.locals[i].typ, true
		}
	}
	return nil, false
}

// --- statements -------------------------------------------------------

func (c *checker) checkMethod(m *MethodDecl) error {
	if m.Body == nil {
		return nil
	}
	c.method = m
	c.locals, c.marks = c.locals[:0], c.marks[:0]
	c.push()
	for _, p := range m.Params {
		if err := c.define(p.Pos, p.Name, p.Type); err != nil {
			return err
		}
	}
	return c.checkBlock(m.Body)
}

func (c *checker) checkBlock(b *Block) error {
	c.push()
	defer c.pop()
	for _, s := range b.Stmts {
		if err := c.checkStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkStmt(s Stmt) error {
	switch st := s.(type) {
	case *Block:
		return c.checkBlock(st)
	case *VarDecl:
		t, err := c.resolveType(st.TypeX)
		if err != nil {
			return err
		}
		if TypeEq(t, VoidType) {
			return errf(st.Pos, "void variable %s", st.Name)
		}
		st.Type = t
		if st.Init != nil {
			it, err := c.checkExpr(st.Init)
			if err != nil {
				return err
			}
			if !Assignable(t, it) {
				return errf(st.Pos, "cannot assign %s to %s %s", it, t, st.Name)
			}
		}
		return c.define(st.Pos, st.Name, t)
	case *If:
		if err := c.wantBool(st.Cond); err != nil {
			return err
		}
		if err := c.checkStmt(st.Then); err != nil {
			return err
		}
		if st.Else != nil {
			return c.checkStmt(st.Else)
		}
		return nil
	case *While:
		if err := c.wantBool(st.Cond); err != nil {
			return err
		}
		return c.checkStmt(st.Body)
	case *For:
		c.push()
		defer c.pop()
		if st.Init != nil {
			if err := c.checkStmt(st.Init); err != nil {
				return err
			}
		}
		if st.Cond != nil {
			if err := c.wantBool(st.Cond); err != nil {
				return err
			}
		}
		if st.Post != nil {
			if _, err := c.checkExpr(st.Post); err != nil {
				return err
			}
		}
		return c.checkStmt(st.Body)
	case *Return:
		ret := c.method.Ret
		if st.Value == nil {
			if !TypeEq(ret, VoidType) {
				return errf(st.Pos, "%s must return %s", c.method.QualifiedName(), ret)
			}
			return nil
		}
		if TypeEq(ret, VoidType) {
			return errf(st.Pos, "void method %s returns a value", c.method.QualifiedName())
		}
		vt, err := c.checkExpr(st.Value)
		if err != nil {
			return err
		}
		if !Assignable(ret, vt) {
			return errf(st.Pos, "cannot return %s from %s method", vt, ret)
		}
		return nil
	case *ExprStmt:
		switch st.X.(type) {
		case *Call, *Assign, *New:
			_, err := c.checkExpr(st.X)
			return err
		default:
			return errf(st.Pos, "expression statement must be a call or assignment")
		}
	}
	return errf(Pos{}, "unhandled statement %T", s)
}

func (c *checker) wantBool(e Expr) error {
	t, err := c.checkExpr(e)
	if err != nil {
		return err
	}
	if !TypeEq(t, BooleanType) {
		return errf(e.ExprPos(), "condition must be boolean, got %s", t)
	}
	return nil
}
