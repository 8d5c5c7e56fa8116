package ir

import "cormi/internal/lang"

// exprForEffect lowers an expression statement, discarding the value.
func (b *builder) exprForEffect(e lang.Expr) {
	b.expr(e)
}

// expr lowers one expression to an SSA value.
func (b *builder) expr(e lang.Expr) *Value {
	switch ex := e.(type) {
	case *lang.IntLit:
		in := b.emit(Instr{Op: OpConst, ConstKind: lang.PInt, ConstInt: ex.Value,
			Dst: b.newValue(lang.IntType, "")})
		return in.Dst
	case *lang.DoubleLit:
		in := b.emit(Instr{Op: OpConst, ConstKind: lang.PDouble, ConstFloat: ex.Value,
			Dst: b.newValue(lang.DoubleType, "")})
		return in.Dst
	case *lang.BoolLit:
		in := b.emit(Instr{Op: OpConst, ConstKind: lang.PBoolean, ConstBool: ex.Value,
			Dst: b.newValue(lang.BooleanType, "")})
		return in.Dst
	case *lang.StringLit:
		in := b.emit(Instr{Op: OpConst, ConstKind: lang.PString, ConstStr: ex.Value,
			Dst: b.newValue(lang.StringType, "")})
		return in.Dst
	case *lang.NullLit:
		in := b.emit(Instr{Op: OpConst, ConstIsNull: true,
			Dst: b.newValue(lang.NullType, "")})
		return in.Dst
	case *lang.This:
		return b.fn.Params[0]
	case *lang.Ident:
		return b.identValue(ex)
	case *lang.FieldAccess:
		return b.fieldLoad(ex)
	case *lang.Index:
		arr := b.expr(ex.X)
		idx := b.expr(ex.I)
		in := b.emit(Instr{Op: OpLoadIdx, Args: b.args(arr, idx),
			Dst: b.newValue(ex.TypeOf(), "")})
		return in.Dst
	case *lang.Call:
		return b.call(ex)
	case *lang.New:
		return b.newObject(ex)
	case *lang.NewArray:
		return b.newArray(ex)
	case *lang.Binary:
		l := b.expr(ex.L)
		r := b.expr(ex.R)
		in := b.emit(Instr{Op: OpBin, BinOp: ex.Op, Args: b.args(l, r),
			Dst: b.newValue(ex.TypeOf(), "")})
		return in.Dst
	case *lang.Unary:
		x := b.expr(ex.X)
		in := b.emit(Instr{Op: OpUn, BinOp: ex.Op, Args: b.args(x),
			Dst: b.newValue(ex.TypeOf(), "")})
		return in.Dst
	case *lang.Assign:
		return b.assign(ex)
	default:
		b.fail(e.ExprPos(), "unhandled expression %T", e)
		return nil
	}
}

func (b *builder) identValue(ex *lang.Ident) *Value {
	switch ex.Kind {
	case lang.IdentLocal:
		key, ok := b.varKey(ex.Name)
		if !ok {
			b.fail(ex.Pos, "internal: unbound local %s", ex.Name)
		}
		return b.readVar(key, b.cur)
	case lang.IdentField:
		if ex.Field.Static {
			in := b.emit(Instr{Op: OpLoadStatic, Field: ex.Field,
				Dst: b.newValue(ex.Field.Type, ex.Name)})
			return in.Dst
		}
		in := b.emit(Instr{Op: OpLoad, Field: ex.Field, Args: b.args(b.fn.Params[0]),
			Dst: b.newValue(ex.Field.Type, ex.Name)})
		return in.Dst
	default:
		b.fail(ex.Pos, "class name %s used as value", ex.Name)
		return nil
	}
}

func (b *builder) fieldLoad(ex *lang.FieldAccess) *Value {
	if ex.IsLen {
		arr := b.expr(ex.X)
		in := b.emit(Instr{Op: OpArrayLen, Args: b.args(arr),
			Dst: b.newValue(lang.IntType, "")})
		return in.Dst
	}
	if ex.Field.Static {
		in := b.emit(Instr{Op: OpLoadStatic, Field: ex.Field,
			Dst: b.newValue(ex.Field.Type, ex.Name)})
		return in.Dst
	}
	obj := b.expr(ex.X)
	in := b.emit(Instr{Op: OpLoad, Field: ex.Field, Args: b.args(obj),
		Dst: b.newValue(ex.Field.Type, ex.Name)})
	return in.Dst
}

func (b *builder) call(ex *lang.Call) *Value {
	// String builtins.
	if ex.Method == nil {
		recv := b.expr(ex.Recv)
		in := b.emit(Instr{Op: OpStrBuiltin, Builtin: ex.Name, Args: b.args(recv),
			Dst: b.newValue(lang.IntType, "")})
		return in.Dst
	}

	nargs := len(ex.Args)
	if !ex.Method.Static {
		nargs++
	}
	args := b.prog.valuePtrs.Slice(nargs)[:0]
	if !ex.Method.Static {
		switch {
		case ex.Recv == nil:
			args = append(args, b.fn.Params[0]) // implicit this
		default:
			if id, ok := ex.Recv.(*lang.Ident); ok && id.Kind == lang.IdentClass {
				b.fail(ex.Pos, "instance method via class name")
			}
			args = append(args, b.expr(ex.Recv))
		}
	}
	for _, a := range ex.Args {
		args = append(args, b.expr(a))
	}

	call := Instr{Op: OpCall, Callee: ex.Method, Args: args}
	if ex.Remote {
		call.Op = OpRemoteCall
		call.SiteID = ex.SiteID
	}
	if !lang.TypeEq(ex.Method.Ret, lang.VoidType) {
		call.Dst = b.newValue(ex.Method.Ret, "")
	}
	in := b.emit(call)
	if ex.Remote && b.cur != nil {
		b.prog.RemoteSites[ex.SiteID] = in
	}
	return in.Dst
}

func (b *builder) newObject(ex *lang.New) *Value {
	in := b.emit(Instr{Op: OpNew, Class: ex.Class, AllocID: ex.AllocID,
		Dst: b.newValue(ex.TypeOf(), "")})
	if b.cur != nil {
		b.prog.AllocSites[ex.AllocID] = in
	}
	if ex.Ctor != nil {
		args := b.prog.valuePtrs.Slice(1 + len(ex.Args))[:1]
		args[0] = in.Dst
		for _, a := range ex.Args {
			args = append(args, b.expr(a))
		}
		b.emit(Instr{Op: OpCall, Callee: ex.Ctor, Args: args})
	}
	return in.Dst
}

func (b *builder) newArray(ex *lang.NewArray) *Value {
	// Java evaluates every dimension expression once, up front.
	lens := b.prog.valuePtrs.Slice(len(ex.Lens))
	for i := range ex.Lens {
		lens[i] = b.expr(ex.Lens[i])
	}
	return b.buildArray(ex, lens, ex.AllocIDs, ex.TypeOf())
}

// buildArray allocates one array level and, for nested sized
// dimensions, emits a real loop filling every slot with a fresh inner
// array. The loop body contains one OpNewArray per level — the same
// one allocation site per dimension the heap analysis expects
// (Figure 2's per-level nodes) — while the executable semantics stay
// faithful (the interpreter runs these loops for real).
func (b *builder) buildArray(ex *lang.NewArray, lens []*Value, allocIDs []int, t lang.Type) *Value {
	arr := b.emit(Instr{Op: OpNewArray, AllocID: allocIDs[0],
		Args: b.args(lens[0]), Dst: b.newValue(t, "")})
	if b.cur != nil {
		b.prog.AllocSites[allocIDs[0]] = arr
	}
	if len(lens) == 1 {
		return arr.Dst
	}
	at, ok := t.(*lang.ArrayType)
	if !ok {
		b.fail(ex.Pos, "internal: array type mismatch")
	}
	if b.cur == nil {
		return arr.Dst // unreachable code
	}

	// for ($i = 0; $i < lens[0]; $i = $i + 1) { arr[$i] = <inner> }
	b.pushScope()
	iKey := b.declare("$arr", lang.IntType) // no source name can spell it
	zero := b.emit(Instr{Op: OpConst, ConstKind: lang.PInt,
		Dst: b.newValue(lang.IntType, "")})
	b.writeVar(iKey, b.cur, zero.Dst)

	header := b.newBlock()
	b.jumpTo(header)
	b.cur = header
	iv := b.readVar(iKey, header)
	cond := b.emit(Instr{Op: OpBin, BinOp: "<", Args: b.args(iv, lens[0]),
		Dst: b.newValue(lang.BooleanType, "")})
	body := b.newBlock()
	exit := b.newBlock()
	b.branchTo(cond.Dst, body, exit)
	b.seal(body)

	b.cur = body
	inner := b.buildArray(ex, lens[1:], allocIDs[1:], at.Elem)
	b.emit(Instr{Op: OpStoreIdx, Args: b.args(arr.Dst, b.readVar(iKey, b.cur), inner)})
	one := b.emit(Instr{Op: OpConst, ConstKind: lang.PInt, ConstInt: 1,
		Dst: b.newValue(lang.IntType, "")})
	next := b.emit(Instr{Op: OpBin, BinOp: "+",
		Args: b.args(b.readVar(iKey, b.cur), one.Dst),
		Dst:  b.newValue(lang.IntType, "")})
	b.writeVar(iKey, b.cur, next.Dst)
	b.jumpTo(header)
	b.seal(header)
	b.seal(exit)
	b.cur = exit
	b.popScope()
	return arr.Dst
}

func (b *builder) assign(ex *lang.Assign) *Value {
	switch lhs := ex.LHS.(type) {
	case *lang.Ident:
		switch lhs.Kind {
		case lang.IdentLocal:
			rhs := b.expr(ex.RHS)
			key, ok := b.varKey(lhs.Name)
			if !ok {
				b.fail(lhs.Pos, "internal: unbound local %s", lhs.Name)
			}
			b.writeVar(key, b.cur, rhs)
			return rhs
		case lang.IdentField:
			rhs := b.expr(ex.RHS)
			if lhs.Field.Static {
				b.emit(Instr{Op: OpStoreStatic, Field: lhs.Field, Args: b.args(rhs)})
			} else {
				b.emit(Instr{Op: OpStore, Field: lhs.Field, Args: b.args(b.fn.Params[0], rhs)})
			}
			return rhs
		}
	case *lang.FieldAccess:
		if lhs.Field.Static {
			rhs := b.expr(ex.RHS)
			b.emit(Instr{Op: OpStoreStatic, Field: lhs.Field, Args: b.args(rhs)})
			return rhs
		}
		obj := b.expr(lhs.X)
		rhs := b.expr(ex.RHS)
		b.emit(Instr{Op: OpStore, Field: lhs.Field, Args: b.args(obj, rhs)})
		return rhs
	case *lang.Index:
		arr := b.expr(lhs.X)
		idx := b.expr(lhs.I)
		rhs := b.expr(ex.RHS)
		b.emit(Instr{Op: OpStoreIdx, Args: b.args(arr, idx, rhs)})
		return rhs
	}
	b.fail(ex.Pos, "internal: bad assignment target")
	return nil
}
