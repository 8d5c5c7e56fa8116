package core

import "cormi/internal/ir"

// leafPass decides which remote call sites are leaves: no method the
// site may dispatch to reaches a remote call, through its own body or
// any local call it makes. The runtime runs a leaf site's method on the
// callee's receive loop instead of handing it to an executor, so a
// wrong "leaf" would let a nested call wait on the loop that must
// deliver its reply; every doubt therefore answers "not a leaf".
//
// A remote call dispatches on the receiver's runtime class, so every
// method it may run (ir.Program.DispatchTargets: the callee and each
// override in a subclass) is a candidate. Local calls are direct
// (MiniJP has no virtual dispatch outside RMI).
type leafPass struct {
	r *Result
	// reach holds the functions that may reach a remote call, filled
	// by the first verdict.
	reach map[*ir.Func]bool
}

// leaf reports whether the remote call in is a leaf site.
func (p *leafPass) leaf(in *ir.Instr) bool {
	if p.reach == nil {
		p.reach = reachesRemote(p.r.IR)
	}
	for _, md := range p.r.IR.DispatchTargets(in.Callee) {
		// A method without a lowered body is unknown, and so counts
		// as reaching a remote call.
		fn, ok := p.r.IR.FuncOf[md]
		if !ok || p.reach[fn] {
			return false
		}
	}
	return true
}

// reachesRemote marks every function that contains a remote call or a
// call to a bodiless method, then the callers of marked functions until
// nothing changes; recursion needs nothing more.
func reachesRemote(prog *ir.Program) map[*ir.Func]bool {
	reach := map[*ir.Func]bool{}
	for changed := true; changed; {
		changed = false
		for _, fn := range prog.Funcs {
			if !reach[fn] && callsRemote(prog, fn, reach) {
				reach[fn], changed = true, true
			}
		}
	}
	return reach
}

// callsRemote reports whether fn makes a remote call, or a direct call
// to a function reach holds or that has no body.
func callsRemote(prog *ir.Program, fn *ir.Func, reach map[*ir.Func]bool) bool {
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpRemoteCall:
				return true
			case ir.OpCall:
				if callee, ok := prog.FuncOf[in.Callee]; !ok || reach[callee] {
					return true
				}
			}
		}
	}
	return false
}
