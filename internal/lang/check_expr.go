package lang

// checkExpr resolves and types one expression, returning its type.
func (c *checker) checkExpr(e Expr) (Type, error) {
	switch ex := e.(type) {
	case *IntLit:
		ex.setType(IntType)
	case *DoubleLit:
		ex.setType(DoubleType)
	case *BoolLit:
		ex.setType(BooleanType)
	case *StringLit:
		ex.setType(StringType)
	case *NullLit:
		ex.setType(NullType)
	case *This:
		if c.method.Static {
			return nil, errf(ex.Pos, "this in static method %s", c.method.QualifiedName())
		}
		ex.Class = c.method.Class
		ex.setType(c.method.Class.Type())
	case *Ident:
		t, err := c.resolveIdent(ex, false)
		if err != nil {
			return nil, err
		}
		ex.setType(t)
	case *FieldAccess:
		return c.checkFieldAccess(ex)
	case *Index:
		xt, err := c.checkExpr(ex.X)
		if err != nil {
			return nil, err
		}
		at, ok := xt.(*ArrayType)
		if !ok {
			return nil, errf(ex.Pos, "indexing non-array %s", xt)
		}
		it, err := c.checkExpr(ex.I)
		if err != nil {
			return nil, err
		}
		if !TypeEq(it, IntType) {
			return nil, errf(ex.Pos, "array index must be int, got %s", it)
		}
		ex.setType(at.Elem)
	case *Call:
		return c.checkCall(ex)
	case *New:
		return c.checkNew(ex)
	case *NewArray:
		return c.checkNewArray(ex)
	case *Binary:
		return c.checkBinary(ex)
	case *Unary:
		xt, err := c.checkExpr(ex.X)
		if err != nil {
			return nil, err
		}
		switch ex.Op {
		case "-":
			if !IsNumeric(xt) {
				return nil, errf(ex.Pos, "unary - on %s", xt)
			}
			ex.setType(xt)
		case "!":
			if !TypeEq(xt, BooleanType) {
				return nil, errf(ex.Pos, "unary ! on %s", xt)
			}
			ex.setType(BooleanType)
		}
	case *Assign:
		return c.checkAssign(ex)
	default:
		return nil, errf(e.ExprPos(), "unhandled expression %T", e)
	}
	return e.TypeOf(), nil
}

// resolveIdent binds a bare identifier: local, field of the enclosing
// class, or (when asReceiver) a class name.
func (c *checker) resolveIdent(ex *Ident, asReceiver bool) (Type, error) {
	if t, ok := c.lookupLocal(ex.Name); ok {
		ex.Kind = IdentLocal
		return t, nil
	}
	if f := c.method.Class.FieldByName(ex.Name); f != nil {
		if c.method.Static && !f.Static {
			return nil, errf(ex.Pos, "instance field %s in static method", ex.Name)
		}
		ex.Kind = IdentField
		ex.Field = f
		return f.Type, nil
	}
	if cd, ok := c.prog.Classes[ex.Name]; ok && asReceiver {
		ex.Kind = IdentClass
		ex.Class = cd
		return nil, nil
	}
	return nil, errf(ex.Pos, "undefined: %s", ex.Name)
}

func (c *checker) checkFieldAccess(ex *FieldAccess) (Type, error) {
	// Class-name receiver: static field.
	if id, ok := ex.X.(*Ident); ok {
		if _, lok := c.lookupLocal(id.Name); !lok {
			if c.method.Class.FieldByName(id.Name) == nil {
				if cd, cok := c.prog.Classes[id.Name]; cok {
					id.Kind = IdentClass
					id.Class = cd
					f := cd.FieldByName(ex.Name)
					if f == nil || !f.Static {
						return nil, errf(ex.Pos, "%s has no static field %s", cd.Name, ex.Name)
					}
					ex.Field = f
					ex.setType(f.Type)
					return f.Type, nil
				}
			}
		}
	}
	xt, err := c.checkExpr(ex.X)
	if err != nil {
		return nil, err
	}
	if at, ok := xt.(*ArrayType); ok {
		_ = at
		if ex.Name == "length" {
			ex.IsLen = true
			ex.setType(IntType)
			return IntType, nil
		}
		return nil, errf(ex.Pos, "array has no field %s", ex.Name)
	}
	ct, ok := xt.(*ClassType)
	if !ok {
		return nil, errf(ex.Pos, "field access on non-object %s", xt)
	}
	f := ct.Decl.FieldByName(ex.Name)
	if f == nil {
		return nil, errf(ex.Pos, "%s has no field %s", ct.Decl.Name, ex.Name)
	}
	ex.Field = f
	ex.setType(f.Type)
	return f.Type, nil
}

func (c *checker) checkCall(ex *Call) (Type, error) {
	var recvType Type
	var class *ClassDecl
	static := false

	switch {
	case ex.Recv == nil:
		class = c.method.Class
	default:
		if id, ok := ex.Recv.(*Ident); ok {
			// Try class-name receiver first (static call).
			if _, lok := c.lookupLocal(id.Name); !lok && c.method.Class.FieldByName(id.Name) == nil {
				if _, err := c.resolveIdent(id, true); err == nil && id.Kind == IdentClass {
					class = id.Class
					static = true
				}
			}
		}
		if class == nil {
			rt, err := c.checkExpr(ex.Recv)
			if err != nil {
				return nil, err
			}
			recvType = rt
			// String builtins.
			if TypeEq(rt, StringType) {
				switch ex.Name {
				case "hashCode":
					if len(ex.Args) != 0 {
						return nil, errf(ex.Pos, "hashCode takes no arguments")
					}
					ex.setType(IntType)
					return IntType, nil
				case "length":
					if len(ex.Args) != 0 {
						return nil, errf(ex.Pos, "length takes no arguments")
					}
					ex.setType(IntType)
					return IntType, nil
				default:
					return nil, errf(ex.Pos, "String has no method %s", ex.Name)
				}
			}
			ct, ok := rt.(*ClassType)
			if !ok {
				return nil, errf(ex.Pos, "method call on non-object %s", rt)
			}
			class = ct.Decl
		}
	}

	m := class.MethodByName(ex.Name)
	if m == nil || m.IsCtor {
		return nil, errf(ex.Pos, "%s has no method %s", class.Name, ex.Name)
	}
	if static && !m.Static {
		return nil, errf(ex.Pos, "instance method %s called statically", m.QualifiedName())
	}
	if len(ex.Args) != len(m.Params) {
		return nil, errf(ex.Pos, "%s takes %d arguments, got %d", m.QualifiedName(), len(m.Params), len(ex.Args))
	}
	for i, a := range ex.Args {
		at, err := c.checkExpr(a)
		if err != nil {
			return nil, err
		}
		if !Assignable(m.Params[i].Type, at) {
			return nil, errf(a.ExprPos(), "argument %d of %s: cannot assign %s to %s",
				i+1, m.QualifiedName(), at, m.Params[i].Type)
		}
	}
	ex.Method = m

	// An instance call through a reference to a remote class is an
	// RMI; calls through `this` and static calls are direct.
	_, viaThis := ex.Recv.(*This)
	if ex.Recv != nil && !viaThis && !static && !m.Static {
		if ct, ok := recvType.(*ClassType); ok && ct.Decl.Remote {
			ex.Remote = true
			ex.SiteID = len(c.prog.RemoteCalls)
			c.prog.RemoteCalls = append(c.prog.RemoteCalls, ex)
		}
	}
	ex.setType(m.Ret)
	return m.Ret, nil
}

func (c *checker) checkNew(ex *New) (Type, error) {
	cd, ok := c.prog.Classes[ex.ClassName]
	if !ok {
		return nil, errf(ex.Pos, "unknown class %s", ex.ClassName)
	}
	ex.Class = cd
	// Find a constructor.
	for _, m := range cd.Methods {
		if m.IsCtor {
			ex.Ctor = m
			break
		}
	}
	if ex.Ctor == nil {
		if len(ex.Args) != 0 {
			return nil, errf(ex.Pos, "%s has no constructor taking %d arguments", cd.Name, len(ex.Args))
		}
	} else {
		if len(ex.Args) != len(ex.Ctor.Params) {
			return nil, errf(ex.Pos, "constructor %s takes %d arguments, got %d",
				cd.Name, len(ex.Ctor.Params), len(ex.Args))
		}
		for i, a := range ex.Args {
			at, err := c.checkExpr(a)
			if err != nil {
				return nil, err
			}
			if !Assignable(ex.Ctor.Params[i].Type, at) {
				return nil, errf(a.ExprPos(), "constructor argument %d: cannot assign %s to %s",
					i+1, at, ex.Ctor.Params[i].Type)
			}
		}
	}
	ex.AllocID = c.prog.NumAllocSites
	c.prog.NumAllocSites++
	t := cd.Type()
	ex.setType(t)
	return t, nil
}

func (c *checker) checkNewArray(ex *NewArray) (Type, error) {
	elem, err := c.resolveType(ex.ElemX)
	if err != nil {
		return nil, err
	}
	if TypeEq(elem, VoidType) {
		return nil, errf(ex.Pos, "void array")
	}
	ex.Elem = elem
	if len(ex.Lens) == 0 {
		return nil, errf(ex.Pos, "new array needs at least one sized dimension")
	}
	for _, l := range ex.Lens {
		lt, err := c.checkExpr(l)
		if err != nil {
			return nil, err
		}
		if !TypeEq(lt, IntType) {
			return nil, errf(l.ExprPos(), "array length must be int, got %s", lt)
		}
	}
	// One allocation site per sized dimension, outermost first
	// (Figure 2: double[][][] has separate heap nodes per level).
	ex.AllocIDs = make([]int, len(ex.Lens))
	for i := range ex.AllocIDs {
		ex.AllocIDs[i] = c.prog.NumAllocSites
		c.prog.NumAllocSites++
	}
	t := elem
	for i := 0; i < ex.Dims; i++ {
		t = c.arrayOf(t)
	}
	ex.setType(t)
	return t, nil
}

func (c *checker) checkBinary(ex *Binary) (Type, error) {
	lt, err := c.checkExpr(ex.L)
	if err != nil {
		return nil, err
	}
	rt, err := c.checkExpr(ex.R)
	if err != nil {
		return nil, err
	}
	switch ex.Op {
	case "+", "-", "*", "/", "%":
		if !IsNumeric(lt) || !IsNumeric(rt) {
			return nil, errf(ex.Pos, "arithmetic on %s and %s", lt, rt)
		}
		if ex.Op == "%" && (!TypeEq(lt, IntType) || !TypeEq(rt, IntType)) {
			return nil, errf(ex.Pos, "%% needs int operands")
		}
		if TypeEq(lt, DoubleType) || TypeEq(rt, DoubleType) {
			ex.setType(DoubleType)
		} else {
			ex.setType(IntType)
		}
	case "<", "<=", ">", ">=":
		if !IsNumeric(lt) || !IsNumeric(rt) {
			return nil, errf(ex.Pos, "comparison of %s and %s", lt, rt)
		}
		ex.setType(BooleanType)
	case "==", "!=":
		if !Assignable(lt, rt) && !Assignable(rt, lt) {
			return nil, errf(ex.Pos, "incomparable types %s and %s", lt, rt)
		}
		ex.setType(BooleanType)
	case "&&", "||":
		if !TypeEq(lt, BooleanType) || !TypeEq(rt, BooleanType) {
			return nil, errf(ex.Pos, "logical op on %s and %s", lt, rt)
		}
		ex.setType(BooleanType)
	default:
		return nil, errf(ex.Pos, "unknown operator %s", ex.Op)
	}
	return ex.TypeOf(), nil
}

func (c *checker) checkAssign(ex *Assign) (Type, error) {
	var lt Type
	switch lhs := ex.LHS.(type) {
	case *Ident:
		t, err := c.resolveIdent(lhs, false)
		if err != nil {
			return nil, err
		}
		lhs.setType(t)
		lt = t
	case *FieldAccess:
		t, err := c.checkFieldAccess(lhs)
		if err != nil {
			return nil, err
		}
		if lhs.IsLen {
			return nil, errf(lhs.Pos, "cannot assign to array length")
		}
		lt = t
	case *Index:
		t, err := c.checkExpr(lhs)
		if err != nil {
			return nil, err
		}
		lt = t
	default:
		return nil, errf(ex.Pos, "invalid assignment target")
	}
	rt, err := c.checkExpr(ex.RHS)
	if err != nil {
		return nil, err
	}
	if !Assignable(lt, rt) {
		return nil, errf(ex.Pos, "cannot assign %s to %s", rt, lt)
	}
	ex.setType(lt)
	return lt, nil
}
