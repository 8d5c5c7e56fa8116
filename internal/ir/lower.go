package ir

import (
	"fmt"

	"cormi/internal/lang"
)

// Lower converts a checked program to SSA IR.
func Lower(p *lang.Program) (*Program, error) {
	bodies := 0
	for _, cd := range p.File.Classes {
		for _, m := range cd.Methods {
			if m.Body != nil {
				bodies++
			}
		}
	}
	prog := &Program{
		Lang:        p,
		Funcs:       make([]*Func, 0, bodies),
		FuncOf:      make(map[*lang.MethodDecl]*Func, bodies),
		RemoteSites: make([]*Instr, len(p.RemoteCalls)),
		AllocSites:  make([]*Instr, p.NumAllocSites),
	}
	b := &builder{prog: prog}
	for _, cd := range p.File.Classes {
		for _, m := range cd.Methods {
			if m.Body == nil {
				continue
			}
			fn, err := b.lowerFunc(m)
			if err != nil {
				return nil, err
			}
			prog.Funcs = append(prog.Funcs, fn)
			prog.FuncOf[m] = fn
		}
	}
	prog.buildDispatch()
	return prog, nil
}

// builder lowers one function at a time; its scratch (scopes, variable
// types, per-block SSA construction state) is reset, not reallocated,
// between functions.
type builder struct {
	prog *Program
	fn   *Func
	cur  *Block // nil while lowering unreachable code

	// Lexical scopes as one stack of declarations plus the stack
	// height at each open scope; lookup scans from the top, so an
	// inner declaration shadows an outer one.
	scopes   []scopedVar
	marks    []int
	varTypes []lang.Type // indexed by variable key

	// state is the SSA construction state (Braun et al.) of the
	// current function's blocks, indexed by Block.ID.
	state []blockState
}

type scopedVar struct {
	name string
	key  int
}

type blockState struct {
	sealed bool
	// defs is the current definition of each variable in this block,
	// indexed by variable key (nil: none yet; the slice covers only
	// the keys written so far).
	defs []*Value
	// incomplete holds the placeholder phis of an unsealed block in
	// creation order, which is the order seal completes them in —
	// value numbering must not depend on map iteration.
	incomplete []pendingPhi
}

type pendingPhi struct {
	key int
	phi *Instr // nil once removed as trivial
}

func (b *builder) lowerFunc(m *lang.MethodDecl) (fn *Func, err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(*lowerPanic); ok {
				err = e.err
				return
			}
			panic(r)
		}
	}()
	b.fn = b.prog.funcs.New()
	b.fn.Name, b.fn.Method = m.QualifiedName(), m
	b.scopes, b.marks, b.varTypes, b.state = b.scopes[:0], b.marks[:0], b.varTypes[:0], b.state[:0]
	entry := b.newBlock()
	b.state[entry.ID].sealed = true
	b.cur = entry
	b.pushScope()

	nparams := len(m.Params)
	if !m.Static {
		nparams++
	}
	b.fn.Params = b.prog.valuePtrs.Slice(nparams)[:0]
	if !m.Static {
		b.fn.Params = append(b.fn.Params, b.newValue(m.Class.Type(), "this"))
	}
	for _, p := range m.Params {
		v := b.newValue(p.Type, p.Name)
		b.fn.Params = append(b.fn.Params, v)
		key := b.declare(p.Name, p.Type)
		b.writeVar(key, b.cur, v)
	}
	b.block(m.Body)
	// Implicit return at the end of void bodies.
	if b.cur != nil {
		b.emit(Instr{Op: OpRet})
		b.cur = nil
	}
	b.popScope()

	nrets := 0
	for _, blk := range b.fn.Blocks {
		if t := blk.Terminator(); t != nil && t.Op == OpRet && len(t.Args) == 1 {
			nrets++
		}
	}
	b.fn.rets = b.prog.valuePtrs.Slice(nrets)[:0]
	for _, blk := range b.fn.Blocks {
		if t := blk.Terminator(); t != nil && t.Op == OpRet && len(t.Args) == 1 {
			b.fn.rets = append(b.fn.rets, t.Args[0])
		}
	}
	return b.fn, nil
}

type lowerPanic struct{ err error }

func (b *builder) fail(pos lang.Pos, format string, args ...interface{}) {
	panic(&lowerPanic{err: fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...))})
}

// --- construction primitives ----------------------------------------

func (b *builder) newValue(t lang.Type, name string) *Value {
	v := b.prog.values.New()
	v.ID, v.Type, v.Name = b.fn.nextValue, t, name
	v.Uses = v.uses0[:0]
	b.fn.nextValue++
	return v
}

func (b *builder) newBlock() *Block {
	blk := b.prog.blocks.New()
	blk.ID, blk.Func = len(b.fn.Blocks), b.fn
	blk.Preds, blk.Succs = blk.preds0[:0], blk.succs0[:0]
	b.fn.Blocks = b.prog.blockPtrs.Append(b.fn.Blocks, blk)
	if len(b.state) < cap(b.state) {
		// Reuse the slot's slices, emptied, from an earlier function.
		b.state = b.state[:len(b.state)+1]
		st := &b.state[blk.ID]
		*st = blockState{defs: st.defs[:0], incomplete: st.incomplete[:0]}
	} else {
		b.state = append(b.state, blockState{})
	}
	return blk
}

// args copies vs into a slice owned by the program.
func (b *builder) args(vs ...*Value) []*Value {
	out := b.prog.valuePtrs.Slice(len(vs))
	copy(out, vs)
	return out
}

// insert places in at position i of blk.Instrs.
func (b *builder) insert(blk *Block, i int, in *Instr) {
	blk.Instrs = b.prog.instrPtrs.Append(blk.Instrs, nil)
	copy(blk.Instrs[i+1:], blk.Instrs[i:])
	blk.Instrs[i] = in
}

func (b *builder) addUse(v *Value, in *Instr) {
	v.Uses = b.prog.instrPtrs.Append(v.Uses, in)
}

func (b *builder) emit(in Instr) *Instr {
	p := b.prog.instrs.Put(in)
	if b.cur == nil {
		return p // unreachable code: drop
	}
	p.Block = b.cur
	b.insert(b.cur, len(b.cur.Instrs), p)
	for _, a := range p.Args {
		b.addUse(a, p)
	}
	if p.Dst != nil {
		p.Dst.Def = p
	}
	return p
}

func (b *builder) connect(from, to *Block) {
	from.Succs = b.prog.blockPtrs.Append(from.Succs, to)
	to.Preds = b.prog.blockPtrs.Append(to.Preds, from)
}

// jumpTo ends the current block with a jump to target (if live).
func (b *builder) jumpTo(target *Block) {
	if b.cur == nil {
		return
	}
	from := b.cur
	targets := b.prog.blockPtrs.Slice(1)
	targets[0] = target
	b.emit(Instr{Op: OpJump, Targets: targets})
	b.connect(from, target)
	b.cur = nil
}

func (b *builder) branchTo(cond *Value, t, f *Block) {
	from := b.cur
	targets := b.prog.blockPtrs.Slice(2)
	targets[0], targets[1] = t, f
	b.emit(Instr{Op: OpBranch, Args: b.args(cond), Targets: targets})
	b.connect(from, t)
	b.connect(from, f)
	b.cur = nil
}

// --- scoped variables and Braun-style SSA ----------------------------

func (b *builder) pushScope() { b.marks = append(b.marks, len(b.scopes)) }
func (b *builder) popScope() {
	b.scopes = b.scopes[:b.marks[len(b.marks)-1]]
	b.marks = b.marks[:len(b.marks)-1]
}

func (b *builder) declare(name string, t lang.Type) int {
	key := len(b.varTypes)
	b.varTypes = append(b.varTypes, t)
	b.scopes = append(b.scopes, scopedVar{name, key})
	return key
}

func (b *builder) varKey(name string) (int, bool) {
	for i := len(b.scopes) - 1; i >= 0; i-- {
		if b.scopes[i].name == name {
			return b.scopes[i].key, true
		}
	}
	return 0, false
}

func (b *builder) writeVar(key int, blk *Block, v *Value) {
	st := &b.state[blk.ID]
	for len(st.defs) <= key {
		st.defs = append(st.defs, nil)
	}
	st.defs[key] = v
}

// newPhi prepends an operand-less phi for variable key to blk.
func (b *builder) newPhi(key int, blk *Block) *Instr {
	phi := b.prog.instrs.Put(Instr{Op: OpPhi, Block: blk, Dst: b.newValue(b.varTypes[key], "")})
	phi.Dst.Def = phi
	b.insert(blk, 0, phi)
	return phi
}

func (b *builder) readVar(key int, blk *Block) *Value {
	st := &b.state[blk.ID]
	if key < len(st.defs) && st.defs[key] != nil {
		return st.defs[key]
	}
	var v *Value
	switch {
	case !st.sealed:
		// Incomplete CFG (loop header): placeholder phi, operands
		// filled in when the block is sealed.
		phi := b.newPhi(key, blk)
		st.incomplete = append(st.incomplete, pendingPhi{key, phi})
		v = phi.Dst
	case len(blk.Preds) == 1:
		v = b.readVar(key, blk.Preds[0])
	case len(blk.Preds) == 0:
		// Unreachable join or use before any definition: a typed zero.
		v = b.zeroValueIn(blk, b.varTypes[key])
	default:
		phi := b.newPhi(key, blk)
		b.writeVar(key, blk, phi.Dst)
		v = b.addPhiOperands(key, phi)
	}
	b.writeVar(key, blk, v)
	return v
}

func (b *builder) addPhiOperands(key int, phi *Instr) *Value {
	preds := phi.Block.Preds
	phi.Args = b.prog.valuePtrs.Slice(len(preds))[:0]
	phi.PhiPreds = b.prog.blockPtrs.Slice(len(preds))[:0]
	for _, pred := range preds {
		v := b.readVar(key, pred)
		phi.Args = append(phi.Args, v)
		phi.PhiPreds = append(phi.PhiPreds, pred)
		b.addUse(v, phi)
	}
	return b.tryRemoveTrivialPhi(phi)
}

// tryRemoveTrivialPhi removes phis of the form v = phi(v, x, x, ...)
// per Braun et al., rerouting uses to the single real operand and
// recursing into phi users that may have become trivial.
func (b *builder) tryRemoveTrivialPhi(phi *Instr) *Value {
	var same *Value
	for _, op := range phi.Args {
		if op == same || op == phi.Dst {
			continue
		}
		if same != nil {
			return phi.Dst // merges at least two values: keep
		}
		same = op
	}
	if same == nil {
		// Unreachable or self-only phi: a typed zero.
		same = b.zeroValueIn(phi.Block, phi.Dst.Type)
	}

	// Unlink phi from its operands' use lists.
	for _, op := range phi.Args {
		op.Uses = removeUse(op.Uses, phi)
	}
	// Remove the phi instruction from its block.
	blk := phi.Block
	for i, in := range blk.Instrs {
		if in == phi {
			blk.Instrs = append(blk.Instrs[:i], blk.Instrs[i+1:]...)
			break
		}
	}
	// Reroute all uses of the phi to `same`.
	users := phi.Dst.Uses
	phi.Dst.Uses = nil
	for _, u := range users {
		if u == phi {
			continue
		}
		for i, a := range u.Args {
			if a == phi.Dst {
				u.Args[i] = same
				b.addUse(same, u)
			}
		}
	}
	// Variable tables may still name the removed phi.
	for i := range b.state {
		st := &b.state[i]
		for k, v := range st.defs {
			if v == phi.Dst {
				st.defs[k] = same
			}
		}
		for k := range st.incomplete {
			if st.incomplete[k].phi == phi {
				st.incomplete[k].phi = nil
			}
		}
	}
	// Phi users may have become trivial in turn.
	for _, u := range users {
		if u != phi && u.Op == OpPhi {
			b.tryRemoveTrivialPhi(u)
		}
	}
	return same
}

func removeUse(uses []*Instr, in *Instr) []*Instr {
	out := uses[:0]
	for _, u := range uses {
		if u != in {
			out = append(out, u)
		}
	}
	return out
}

func (b *builder) seal(blk *Block) {
	st := &b.state[blk.ID]
	if st.sealed {
		return
	}
	st.sealed = true
	// Completing one phi may remove a later one as trivial (its entry
	// is then nil) but adds neither an entry, for the block is sealed,
	// nor a block, so st stays valid.
	for i := range st.incomplete {
		if p := st.incomplete[i]; p.phi != nil {
			b.addPhiOperands(p.key, p.phi)
		}
	}
	st.incomplete = st.incomplete[:0]
}

// zeroValueIn emits a typed zero constant into blk.
func (b *builder) zeroValueIn(blk *Block, t lang.Type) *Value {
	in := b.prog.instrs.Put(zeroConstInstr(t))
	in.Block, in.Dst = blk, b.newValue(t, "")
	in.Dst.Def = in
	// Insert after any leading phis.
	i := 0
	for i < len(blk.Instrs) && blk.Instrs[i].Op == OpPhi {
		i++
	}
	b.insert(blk, i, in)
	return in.Dst
}

// zeroConstInstr is the constant a variable of type t holds before
// any assignment.
func zeroConstInstr(t lang.Type) Instr {
	in := Instr{Op: OpConst}
	if lang.IsRef(t) {
		in.ConstIsNull = true
	} else if p, ok := t.(*lang.PrimType); ok {
		in.ConstKind = p.Kind
	}
	return in
}

// --- statements -------------------------------------------------------

func (b *builder) block(blk *lang.Block) {
	b.pushScope()
	for _, s := range blk.Stmts {
		if b.cur == nil {
			break // code after return
		}
		b.stmt(s)
	}
	b.popScope()
}

func (b *builder) stmt(s lang.Stmt) {
	switch st := s.(type) {
	case *lang.Block:
		b.block(st)
	case *lang.VarDecl:
		key := b.declare(st.Name, st.Type)
		var v *Value
		if st.Init != nil {
			v = b.expr(st.Init)
		} else {
			v = b.zeroConst(st.Type)
		}
		b.writeVar(key, b.cur, v)
	case *lang.If:
		cond := b.expr(st.Cond)
		thenB := b.newBlock()
		joinB := b.newBlock()
		elseB := joinB
		if st.Else != nil {
			elseB = b.newBlock()
		}
		b.branchTo(cond, thenB, elseB)
		b.seal(thenB)
		if elseB != joinB {
			b.seal(elseB)
		}
		b.cur = thenB
		b.stmt(st.Then)
		b.jumpTo(joinB)
		if st.Else != nil {
			b.cur = elseB
			b.stmt(st.Else)
			b.jumpTo(joinB)
		}
		b.seal(joinB)
		b.cur = joinB
	case *lang.While:
		header := b.newBlock()
		b.jumpTo(header)
		b.cur = header
		cond := b.expr(st.Cond)
		body := b.newBlock()
		exit := b.newBlock()
		b.branchTo(cond, body, exit)
		b.seal(body)
		b.cur = body
		b.stmt(st.Body)
		b.jumpTo(header)
		b.seal(header)
		b.seal(exit)
		b.cur = exit
	case *lang.For:
		b.pushScope()
		if st.Init != nil {
			b.stmt(st.Init)
		}
		header := b.newBlock()
		b.jumpTo(header)
		b.cur = header
		var cond *Value
		if st.Cond != nil {
			cond = b.expr(st.Cond)
		} else {
			in := b.emit(Instr{Op: OpConst, ConstKind: lang.PBoolean, ConstBool: true,
				Dst: b.newValue(lang.BooleanType, "")})
			cond = in.Dst
		}
		body := b.newBlock()
		exit := b.newBlock()
		b.branchTo(cond, body, exit)
		b.seal(body)
		b.cur = body
		b.stmt(st.Body)
		if b.cur != nil && st.Post != nil {
			b.expr(st.Post)
		}
		b.jumpTo(header)
		b.seal(header)
		b.seal(exit)
		b.cur = exit
		b.popScope()
	case *lang.Return:
		in := Instr{Op: OpRet}
		if st.Value != nil {
			in.Args = b.args(b.expr(st.Value))
		}
		b.emit(in)
		b.cur = nil
	case *lang.ExprStmt:
		b.exprForEffect(st.X)
	default:
		b.fail(lang.Pos{}, "unhandled statement %T", s)
	}
}

func (b *builder) zeroConst(t lang.Type) *Value {
	in := zeroConstInstr(t)
	in.Dst = b.newValue(t, "")
	return b.emit(in).Dst
}
