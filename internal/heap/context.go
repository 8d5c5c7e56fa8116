package heap

import (
	"cormi/internal/ir"
)

// buildContexts is the static context prepass of the 1-call-site-
// sensitive analysis. It decides, once and deterministically, which
// analysis context every call instruction binds its callee in:
//
//   - each direct call of a function with a body gets a dedicated
//     context (a fresh clone of the callee's points-to summary), so
//     the callee's facts are not merged across unrelated callers;
//   - calls to recursive functions (any function on a direct-call
//     cycle) bind the merged context MergedCtx — context cloning
//     cannot separate the unboundedly many activations anyway;
//   - calls to functions with more direct call sites than
//     Options.ContextBudget bind MergedCtx too, bounding the number of
//     contexts (and hence analysis cost) linearly in the budget. Each
//     such demotion is COUNTED in BudgetFallbacks: budget exhaustion
//     is a precision cliff and must be observable, not silent;
//   - remote calls always bind MergedCtx: the RMI boundary already
//     separates call sites through per-site clone contexts (ArgCtx /
//     RetCtx), so a second separation would only duplicate nodes.
//
// The prepass runs over a.funcs — every region's functions, in solve
// order — and contexts are numbered in that deterministic order, which
// makes node IDs and therefore every downstream witness byte-stable
// across runs. Recursion flags come from the scheduler's whole-program
// plan (a.recursive is filled before this runs).
//
// A function's merged context is only analyzed when something can
// actually bind into it: the function has no in-program callers (an
// entry point such as main), it is invoked remotely, or some direct
// call falls back to MergedCtx. Skipping dead merged contexts is not
// just a cost saving — it prevents phantom parameter-less summaries
// from leaking spurious nodes into the merged PointsTo view.
func (a *Analysis) buildContexts() {
	prog := a.Prog
	a.ctxsOf = make(map[*ir.Func][]Ctx, len(a.funcs))
	a.ctxOfCall = map[*ir.Instr]Ctx{}
	a.hasCaller = make(map[*ir.Func]bool, len(a.funcs))
	a.BudgetFallbacks = map[string]int{}
	a.ctxSite = []*ir.Instr{nil} // MergedCtx has no call site
	if a.recursive == nil {
		a.recursive = map[*ir.Func]bool{}
	}

	directSites := make(map[*ir.Func]int, len(a.funcs))
	remoteTarget := map[*ir.Func]bool{}
	for _, f := range a.funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpCall:
					callee, ok := prog.FuncOf[in.Callee]
					if !ok {
						continue // bodiless method: no summary to specialize
					}
					a.hasCaller[callee] = true
					directSites[callee]++
				case ir.OpRemoteCall:
					for _, md := range prog.DispatchTargets(in.Callee) {
						if callee, ok := prog.FuncOf[md]; ok {
							a.hasCaller[callee] = true
							remoteTarget[callee] = true
						}
					}
				}
			}
		}
	}

	// The call counts decide every function's context list before any
	// context is numbered: its direct sites each get a dedicated
	// context, or they all fall back to the merged one. The lists are
	// carved from one array, MergedCtx (if live) first.
	budget := a.Opts.budget()
	dedicated := func(f *ir.Func) bool {
		return a.Opts.ContextSensitive && !a.recursive[f] && directSites[f] <= budget
	}
	total := 0
	for _, f := range a.funcs {
		total += 1 + directSites[f]
	}
	lists := make([]Ctx, 0, total)
	for _, f := range a.funcs {
		n := len(lists)
		if !a.hasCaller[f] || remoteTarget[f] || directSites[f] > 0 && !dedicated(f) {
			lists = append(lists, MergedCtx)
		}
		filled := len(lists)
		if dedicated(f) {
			lists = lists[:filled+directSites[f]] // numbered below
		}
		a.ctxsOf[f] = lists[n:filled:len(lists)]
	}

	for _, f := range a.funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpCall {
					continue
				}
				callee, ok := prog.FuncOf[in.Callee]
				if !ok {
					continue
				}
				if !dedicated(callee) {
					a.ctxOfCall[in] = MergedCtx
					if a.Opts.ContextSensitive && !a.recursive[callee] {
						a.BudgetFallbacks[in.Callee.QualifiedName()]++
					}
					continue
				}
				c := Ctx(len(a.ctxSite))
				a.ctxSite = append(a.ctxSite, in)
				a.ctxOfCall[in] = c
				a.ctxsOf[callee] = append(a.ctxsOf[callee], c)
			}
		}
	}
}
