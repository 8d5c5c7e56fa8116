package interp

import (
	"fmt"

	"cormi/internal/ir"
	"cormi/internal/lang"
	"cormi/internal/model"
	"cormi/internal/rmi"
)

// maxSteps bounds one method activation, turning runaway MiniJP loops
// into errors instead of hangs.
const maxSteps = 20_000_000

// exec interprets one SSA function for from: the node running it, or
// the remote call it serves, whose trace its nested remote calls join.
func (m *Machine) exec(from rmi.Caller, fn *ir.Func, args []value) (value, error) {
	if len(args) != len(fn.Params) {
		return value{}, fmt.Errorf("interp: %s: %d args for %d params", fn.Name, len(args), len(fn.Params))
	}
	frame := make(map[*ir.Value]value, 16)
	for i, p := range fn.Params {
		frame[p] = coerce(args[i], p.Type)
	}

	block := fn.Entry()
	var prev *ir.Block
	steps := 0
	for {
		// Phis first, evaluated simultaneously from the predecessor.
		var phiVals []value
		nphi := 0
		for _, in := range block.Instrs {
			if in.Op != ir.OpPhi {
				break
			}
			nphi++
			picked := false
			for i, pb := range in.PhiPreds {
				if pb == prev {
					phiVals = append(phiVals, frame[in.Args[i]])
					picked = true
					break
				}
			}
			if !picked {
				return value{}, fmt.Errorf("interp: %s: phi without edge from b%d", fn.Name, prevID(prev))
			}
		}
		for i := 0; i < nphi; i++ {
			frame[block.Instrs[i].Dst] = phiVals[i]
		}

		for _, in := range block.Instrs[nphi:] {
			steps++
			if steps > maxSteps {
				return value{}, fmt.Errorf("interp: %s: step limit exceeded", fn.Name)
			}
			switch in.Op {
			case ir.OpRet:
				if len(in.Args) == 1 {
					return coerce(frame[in.Args[0]], fn.Method.Ret), nil
				}
				return value{}, nil
			case ir.OpJump:
				// fallthrough to next block below
			case ir.OpBranch:
				// handled below
			default:
				v, err := m.step(from, fn, in, frame)
				if err != nil {
					return value{}, err
				}
				if in.Dst != nil {
					frame[in.Dst] = v
				}
			}
		}

		t := block.Terminator()
		if t == nil {
			return value{}, fmt.Errorf("interp: %s: block b%d falls off", fn.Name, block.ID)
		}
		prev = block
		switch t.Op {
		case ir.OpJump:
			block = t.Targets[0]
		case ir.OpBranch:
			if frame[t.Args[0]].v.AsBool() {
				block = t.Targets[0]
			} else {
				block = t.Targets[1]
			}
		case ir.OpRet:
			// already returned above
			return value{}, nil
		}
	}
}

func prevID(b *ir.Block) int {
	if b == nil {
		return -1
	}
	return b.ID
}

// step executes one non-control instruction.
func (m *Machine) step(from rmi.Caller, fn *ir.Func, in *ir.Instr, frame map[*ir.Value]value) (value, error) {
	switch in.Op {
	case ir.OpConst:
		if in.ConstIsNull {
			return plain(model.Null()), nil
		}
		switch in.ConstKind {
		case lang.PInt:
			return plain(model.Int(in.ConstInt)), nil
		case lang.PDouble:
			return plain(model.Double(in.ConstFloat)), nil
		case lang.PBoolean:
			return plain(model.Bool(in.ConstBool)), nil
		case lang.PString:
			return plain(model.Str(in.ConstStr)), nil
		}
		return plain(model.Int(in.ConstInt)), nil

	case ir.OpBin:
		return binop(in.BinOp, frame[in.Args[0]], frame[in.Args[1]])

	case ir.OpUn:
		x := frame[in.Args[0]]
		switch in.BinOp {
		case "-":
			if x.v.Kind == model.FDouble {
				return plain(model.Double(-x.v.D)), nil
			}
			return plain(model.Int(-x.v.I)), nil
		case "!":
			return plain(model.Bool(!x.v.AsBool())), nil
		}
		return value{}, fmt.Errorf("interp: bad unary %q", in.BinOp)

	case ir.OpNew:
		if in.Class.Remote {
			r, err := m.placeRemote(in.Class)
			if err != nil {
				return value{}, err
			}
			return value{r: r}, nil
		}
		mc, ok := m.res.ModelClass(in.Class.Name)
		if !ok {
			return value{}, fmt.Errorf("interp: no model class %s", in.Class.Name)
		}
		return plain(model.Ref(model.New(mc))), nil

	case ir.OpNewArray:
		n := frame[in.Args[0]].v.I
		if n < 0 {
			return value{}, fmt.Errorf("interp: negative array size %d", n)
		}
		at, ok := in.Dst.Type.(*lang.ArrayType)
		if !ok {
			return value{}, fmt.Errorf("interp: newarray of %s", in.Dst.Type)
		}
		mc, err := m.arrayClass(at)
		if err != nil {
			return value{}, err
		}
		return plain(model.Ref(model.NewArray(mc, int(n)))), nil

	case ir.OpLoad:
		o, err := object(frame[in.Args[0]])
		if err != nil {
			return value{}, err
		}
		return plain(o.Get(in.Field.Name)), nil

	case ir.OpStore:
		o, err := object(frame[in.Args[0]])
		if err != nil {
			return value{}, err
		}
		v := coerce(frame[in.Args[1]], in.Field.Type)
		if v.r != nil {
			return value{}, fmt.Errorf("interp: cannot store remote reference into field %s", in.Field.Name)
		}
		o.Set(in.Field.Name, v.v)
		return value{}, nil

	case ir.OpLoadStatic:
		m.staticMu.Lock()
		v, ok := m.statics[in.Field]
		m.staticMu.Unlock()
		if !ok {
			return plain(zeroOf(in.Field.Type)), nil
		}
		return v, nil

	case ir.OpStoreStatic:
		m.staticMu.Lock()
		m.statics[in.Field] = coerce(frame[in.Args[0]], in.Field.Type)
		m.staticMu.Unlock()
		return value{}, nil

	case ir.OpLoadIdx:
		return loadIdx(frame[in.Args[0]], frame[in.Args[1]])

	case ir.OpStoreIdx:
		return value{}, storeIdx(frame[in.Args[0]], frame[in.Args[1]], frame[in.Args[2]])

	case ir.OpArrayLen:
		o, err := object(frame[in.Args[0]])
		if err != nil {
			return value{}, err
		}
		return plain(model.Int(int64(o.Len()))), nil

	case ir.OpStrBuiltin:
		s := frame[in.Args[0]].v.S
		switch in.Builtin {
		case "hashCode":
			return plain(model.Int(hashString(s))), nil
		case "length":
			return plain(model.Int(int64(len(s)))), nil
		}
		return value{}, fmt.Errorf("interp: bad builtin %s", in.Builtin)

	case ir.OpCall:
		args := make([]value, len(in.Args))
		for i, a := range in.Args {
			args[i] = frame[a]
		}
		if !in.Callee.Static && args[0].r != nil {
			return value{}, fmt.Errorf("interp: direct call %s on a remote reference", in.Callee.QualifiedName())
		}
		return m.callDirect(from, in.Callee, args)

	case ir.OpRemoteCall:
		recv := frame[in.Args[0]]
		if recv.r == nil {
			if recv.v.IsNull() {
				return value{}, fmt.Errorf("interp: remote call %s on null", in.Callee.QualifiedName())
			}
			return value{}, fmt.Errorf("interp: remote call %s on non-remote value", in.Callee.QualifiedName())
		}
		cs := m.sites[in.SiteID]
		if cs == nil {
			return value{}, fmt.Errorf("interp: call site %d not registered", in.SiteID)
		}
		params := in.Callee.Params
		argVals := make([]model.Value, 0, len(in.Args)-1)
		for i, a := range in.Args[1:] {
			av := frame[a]
			if av.r != nil {
				return value{}, fmt.Errorf("interp: remote reference argument to %s is not supported", in.Callee.QualifiedName())
			}
			if i < len(params) {
				av = coerce(av, params[i].Type)
			}
			argVals = append(argVals, av.v)
		}
		if m.OnRemoteArgs != nil {
			m.OnRemoteArgs(in.SiteID, argVals)
		}
		rets, err := cs.Invoke(from, recv.r.ref, argVals)
		if err != nil {
			return value{}, err
		}
		if m.OnRemoteRet != nil && len(rets) > 0 {
			m.OnRemoteRet(in.SiteID, rets[0])
		}
		if in.Dst == nil || len(rets) == 0 {
			return value{}, nil
		}
		return plain(rets[0]), nil
	}
	return value{}, fmt.Errorf("interp: unhandled op %v", in.Op)
}

// arrayClass maps a MiniJP array type to its runtime class.
func (m *Machine) arrayClass(at *lang.ArrayType) (*model.Class, error) {
	switch et := at.Elem.(type) {
	case *lang.PrimType:
		switch et.Kind {
		case lang.PDouble:
			return m.res.Registry.DoubleArray(), nil
		case lang.PInt, lang.PBoolean:
			return m.res.Registry.IntArray(), nil
		}
		return nil, fmt.Errorf("interp: unsupported array %s", at)
	case *lang.ClassType:
		mc, ok := m.res.ModelClass(et.Decl.Name)
		if !ok {
			return nil, fmt.Errorf("interp: no model class %s", et.Decl.Name)
		}
		return m.res.Registry.ArrayOf(mc), nil
	case *lang.ArrayType:
		inner, err := m.arrayClass(et)
		if err != nil {
			return nil, err
		}
		return m.res.Registry.ArrayOf(inner), nil
	}
	return nil, fmt.Errorf("interp: unsupported array %s", at)
}

func object(v value) (*model.Object, error) {
	if v.r != nil {
		return nil, fmt.Errorf("interp: field/array access through a remote reference")
	}
	if v.v.O == nil {
		return nil, fmt.Errorf("interp: null dereference")
	}
	return v.v.O, nil
}

func loadIdx(av, iv value) (value, error) {
	o, err := object(av)
	if err != nil {
		return value{}, err
	}
	i := int(iv.v.I)
	if i < 0 || i >= o.Len() {
		return value{}, fmt.Errorf("interp: index %d out of bounds [0,%d)", i, o.Len())
	}
	switch o.Class.Kind {
	case model.KDoubleArray:
		return plain(model.Double(o.Doubles[i])), nil
	case model.KIntArray:
		return plain(model.Int(o.Ints[i])), nil
	case model.KRefArray:
		return plain(model.Ref(o.Refs[i])), nil
	}
	return value{}, fmt.Errorf("interp: indexing non-array %s", o.Class.Name)
}

func storeIdx(av, iv, vv value) error {
	o, err := object(av)
	if err != nil {
		return err
	}
	i := int(iv.v.I)
	if i < 0 || i >= o.Len() {
		return fmt.Errorf("interp: index %d out of bounds [0,%d)", i, o.Len())
	}
	switch o.Class.Kind {
	case model.KDoubleArray:
		if vv.v.Kind == model.FInt {
			o.Doubles[i] = float64(vv.v.I)
		} else {
			o.Doubles[i] = vv.v.D
		}
	case model.KIntArray:
		o.Ints[i] = vv.v.I
	case model.KRefArray:
		if vv.r != nil {
			return fmt.Errorf("interp: cannot store remote reference into array")
		}
		o.Refs[i] = vv.v.O
	default:
		return fmt.Errorf("interp: indexing non-array %s", o.Class.Name)
	}
	return nil
}

// coerce widens int to double where the static type demands it.
func coerce(v value, t lang.Type) value {
	if v.r != nil {
		return v
	}
	if p, ok := t.(*lang.PrimType); ok && p.Kind == lang.PDouble && v.v.Kind == model.FInt {
		return plain(model.Double(float64(v.v.I)))
	}
	return v
}

func zeroOf(t lang.Type) model.Value {
	switch tt := t.(type) {
	case *lang.PrimType:
		switch tt.Kind {
		case lang.PInt:
			return model.Int(0)
		case lang.PDouble:
			return model.Double(0)
		case lang.PBoolean:
			return model.Bool(false)
		case lang.PString:
			return model.Str("")
		}
	}
	return model.Null()
}

// binop evaluates a binary operation with Java-style int→double
// promotion.
func binop(op string, l, r value) (value, error) {
	// Reference equality (objects, remote refs, null).
	if op == "==" || op == "!=" {
		if l.r != nil || r.r != nil {
			eq := l.r != nil && r.r != nil && l.r.ref == r.r.ref
			if op == "!=" {
				eq = !eq
			}
			return plain(model.Bool(eq)), nil
		}
		if l.v.Kind == model.FRef || r.v.Kind == model.FRef {
			eq := l.v.O == r.v.O
			if op == "!=" {
				eq = !eq
			}
			return plain(model.Bool(eq)), nil
		}
	}
	switch op {
	case "&&":
		return plain(model.Bool(l.v.AsBool() && r.v.AsBool())), nil
	case "||":
		return plain(model.Bool(l.v.AsBool() || r.v.AsBool())), nil
	}

	dbl := l.v.Kind == model.FDouble || r.v.Kind == model.FDouble
	if dbl {
		lf, rf := asF(l.v), asF(r.v)
		switch op {
		case "+":
			return plain(model.Double(lf + rf)), nil
		case "-":
			return plain(model.Double(lf - rf)), nil
		case "*":
			return plain(model.Double(lf * rf)), nil
		case "/":
			return plain(model.Double(lf / rf)), nil
		case "<":
			return plain(model.Bool(lf < rf)), nil
		case "<=":
			return plain(model.Bool(lf <= rf)), nil
		case ">":
			return plain(model.Bool(lf > rf)), nil
		case ">=":
			return plain(model.Bool(lf >= rf)), nil
		case "==":
			return plain(model.Bool(lf == rf)), nil
		case "!=":
			return plain(model.Bool(lf != rf)), nil
		}
	} else {
		li, ri := l.v.I, r.v.I
		switch op {
		case "+":
			return plain(model.Int(li + ri)), nil
		case "-":
			return plain(model.Int(li - ri)), nil
		case "*":
			return plain(model.Int(li * ri)), nil
		case "/":
			if ri == 0 {
				return value{}, fmt.Errorf("interp: division by zero")
			}
			return plain(model.Int(li / ri)), nil
		case "%":
			if ri == 0 {
				return value{}, fmt.Errorf("interp: division by zero")
			}
			return plain(model.Int(li % ri)), nil
		case "<":
			return plain(model.Bool(li < ri)), nil
		case "<=":
			return plain(model.Bool(li <= ri)), nil
		case ">":
			return plain(model.Bool(li > ri)), nil
		case ">=":
			return plain(model.Bool(li >= ri)), nil
		case "==":
			return plain(model.Bool(li == ri)), nil
		case "!=":
			return plain(model.Bool(li != ri)), nil
		}
	}
	return value{}, fmt.Errorf("interp: bad operator %q", op)
}

func asF(v model.Value) float64 {
	if v.Kind == model.FInt {
		return float64(v.I)
	}
	return v.D
}
