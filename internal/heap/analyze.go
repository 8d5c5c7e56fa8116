package heap

import (
	"cmp"
	"slices"
	"strings"
	"time"

	"cormi/internal/heap/sched"
	"cormi/internal/ir"
	"cormi/internal/lang"
)

// maxIterations bounds the fixpoint loop; the (logical, physical)
// tuple memoization guarantees termination long before this, so hitting
// the bound indicates a bug rather than a big program.
const maxIterations = 10000

// Analyze runs the heap analysis to fixpoint over the whole program
// with the default precision (context-sensitive, strong updates).
func Analyze(prog *ir.Program) *Analysis {
	return AnalyzeOpts(prog, DefaultOptions())
}

// AnalyzeOpts is the scalable analysis driver (DESIGN.md §16). It
// partitions the program into independent analysis regions (weakly
// connected components of the call + shared-static graph, computed by
// internal/heap/sched), solves each region to fixpoint — concurrently
// across Options.Workers — and merges the parts into one program-wide
// Analysis.
//
// The merge is what makes parallelism invisible: regions share no
// analysis state (facts flow only along call edges and shared
// statics, both region-internal by construction), each region is
// solved by the same deterministic sequential engine, and the merged
// node/context numbering depends only on the deterministic region
// order. A run at any worker count is therefore bit-identical to the
// sequential run — the invariant `make verify-analysis` enforces.
func AnalyzeOpts(prog *ir.Program, opts Options) *Analysis {
	start := time.Now()
	plan := sched.BuildPlan(prog)
	nc := len(plan.Components)
	parts := make([]*Analysis, nc)
	workers := opts.workers()
	sched.Run(nc, workers, func(ci int) {
		parts[ci] = solveComponent(prog, plan, ci, opts)
	})

	a := mergeParts(prog, opts, parts)
	a.Cost = CostStats{
		Functions:  len(prog.Funcs),
		SCCs:       len(plan.SCCs),
		Components: nc,
		Waves:      plan.Waves,
		Workers:    workers,
	}
	a.Cost.fillFromAnalysis(a)
	a.Cost.WallNS = time.Since(start).Nanoseconds()
	return a
}

// componentFuncs materializes one region's solve order and recursion
// flags from the plan.
func componentFuncs(plan *sched.Plan, ci int) ([]*ir.Func, map[*ir.Func]bool) {
	comp := plan.Components[ci]
	funcs := make([]*ir.Func, len(comp.Order))
	for i, fi := range comp.Order {
		funcs[i] = plan.Funcs[fi]
	}
	recursive := map[*ir.Func]bool{}
	for _, fi := range comp.Funcs {
		if plan.Recursive[fi] {
			recursive[plan.Funcs[fi]] = true
		}
	}
	return funcs, recursive
}

// solveComponent solves one region with the sequential engine.
//
// With strong updates enabled the region runs in two passes: the
// first pass is a standard weak-update fixpoint; its final (sound,
// over-approximate) points-to sets justify a kill set of dead stores;
// the second pass re-runs the full fixpoint with killed stores
// skipped. The second pass only ever removes constraints, so its sets
// are subsets of the first pass's — every singleton that justified a
// kill stays a singleton (or shrinks to empty), keeping the kills
// justified against the final result.
func solveComponent(prog *ir.Program, plan *sched.Plan, ci int, opts Options) *Analysis {
	funcs, recursive := componentFuncs(plan, ci)
	a := runAnalysis(prog, opts, funcs, recursive, nil)
	if !opts.StrongUpdates {
		return a
	}
	kills := a.computeKills()
	if len(kills) == 0 {
		return a
	}
	b := runAnalysis(prog, opts, funcs, recursive, kills)
	b.StrongKills = len(kills)
	return b
}

// runAnalysis is one complete fixpoint run over one function subset:
// context prepass, then chaotic iteration over every (function, live
// context, instruction) triple until nothing changes. funcs is the
// region's bottom-up wave order — callees are visited before callers
// within each pass, so summaries usually stabilize in fewer passes
// than the old whole-program source order needed, and the order is a
// fixed input, keeping node discovery (and so all numbering)
// deterministic.
func runAnalysis(prog *ir.Program, opts Options, funcs []*ir.Func, recursive map[*ir.Func]bool, killed map[instrCtx]bool) *Analysis {
	a := &Analysis{
		Prog:       prog,
		Opts:       opts,
		funcs:      funcs,
		recursive:  recursive,
		pts:        make(map[valCtx]NodeSet),
		ptsAll:     make(map[*ir.Value]NodeSet),
		globals:    make(map[*lang.FieldDecl]NodeSet),
		allocNode:  make(map[allocKey]NodeID),
		cloneMemo:  make(map[cloneKey]NodeID),
		clonePairs: make(map[clonePair]NodeID),
		argCtxs:    make(map[*lang.MethodDecl]string),
		retCtxs:    make(map[int]string),
		killed:     killed,
	}
	a.buildContexts()
	for {
		a.changed = false
		for _, f := range a.funcs {
			for _, c := range a.ctxsOf[f] {
				for _, b := range f.Blocks {
					for _, in := range b.Instrs {
						a.transfer(in, c)
					}
				}
			}
		}
		a.mirrorCloneEdges()
		a.Iterations++
		if !a.changed {
			return a
		}
		if a.Iterations >= maxIterations {
			panic("heap: fixpoint did not terminate (tuple memoization broken)")
		}
	}
}

// addNode inserts id into v's context-c set, mirroring into the merged
// view and recording the change.
func (a *Analysis) addNode(v *ir.Value, c Ctx, id NodeID) {
	k := valCtx{v, c}
	if s := a.pts[k]; s.Add(id) {
		a.pts[k] = s
		a.changed = true
		if all := a.ptsAll[v]; all.Add(id) {
			a.ptsAll[v] = all
		}
	}
}

// addSet unions src into v's context-c set (and the merged view).
func (a *Analysis) addSet(v *ir.Value, c Ctx, src NodeSet) {
	if len(src) == 0 {
		return
	}
	k := valCtx{v, c}
	if s := a.pts[k]; s.AddAll(src) {
		a.pts[k] = s
		a.changed = true
		if all := a.ptsAll[v]; all.AddAll(src) {
			a.ptsAll[v] = all
		}
	}
}

// addField unions src into the key edges of node n.
func (a *Analysis) addField(n NodeID, key string, src NodeSet) {
	if s := a.fields[n][key]; s.AddAll(src) {
		a.putField(n, key, s)
	}
}

// putField stores s, grown, as the key edges of node n.
func (a *Analysis) putField(n NodeID, key string, s NodeSet) {
	if a.fields[n] == nil {
		a.fields[n] = map[string]NodeSet{}
	}
	a.fields[n][key] = s
	a.changed = true
}

// snapshot copies s into a buffer of the analysis, for the loops that
// clone while walking a set: the set walked may be the one that grows
// (a remote call passing on its own parameter, a clone that is its
// own clone). One loop uses it at a time.
func (a *Analysis) snapshot(s NodeSet) []NodeID {
	a.idScratch = append(a.idScratch[:0], s...)
	return a.idScratch
}

// newNode appends a heap node.
func (a *Analysis) newNode(physical int, t lang.Type, site *ir.Instr, cloneOf NodeID, cloneCtx string, c Ctx, summary bool) *Node {
	n := a.nodes.Put(Node{
		ID:       NodeID(len(a.Nodes)),
		Logical:  len(a.Nodes),
		Physical: physical,
		Type:     t,
		Site:     site,
		Ctx:      c,
		Summary:  summary,
		CloneOf:  cloneOf,
		CloneCtx: cloneCtx,
	})
	a.Nodes = append(a.Nodes, n)
	a.fields = append(a.fields, nil)
	a.changed = true
	return n
}

// nodeForAlloc returns (creating on first encounter) the node of an
// allocation instruction in one analysis context. Merged-context nodes
// of called functions are summaries: the merged context stands for any
// number of unrelated activations, so strong updates must not fire on
// them.
func (a *Analysis) nodeForAlloc(in *ir.Instr, c Ctx) NodeID {
	k := allocKey{in, c}
	if id, ok := a.allocNode[k]; ok {
		return id
	}
	f := in.Block.Func
	summary := c == MergedCtx && a.hasCaller[f]
	n := a.newNode(in.AllocID, in.Dst.Type, in, -1, "", c, summary)
	a.allocNode[k] = n.ID
	return n.ID
}

// cloneOf returns the clone of node id under ctx, creating it when this
// physical number first crosses the boundary (the §2 tuple rule).
// Clones are always summaries: the memoization deliberately conflates
// every object with the same physical number that crosses the same
// boundary.
func (a *Analysis) cloneOf(ctx string, id NodeID) NodeID {
	orig := a.Nodes[id]
	key := cloneKey{ctx: ctx, physical: orig.Physical}
	c, ok := a.cloneMemo[key]
	if !ok {
		n := a.newNode(orig.Physical, orig.Type, orig.Site, id, ctx, MergedCtx, true)
		a.cloneMemo[key] = n.ID
		c = n.ID
	}
	pk := clonePair{ctx: ctx, orig: id}
	if _, seen := a.clonePairs[pk]; !seen {
		a.clonePairs[pk] = c
		a.changed = true
	}
	return c
}

// mirrorCloneEdges keeps clone subgraphs structurally parallel to their
// origins: whenever orig.f may point to m, clone.f may point to
// cloneOf(ctx, m).
func (a *Analysis) mirrorCloneEdges() {
	// Iterate over a sorted snapshot: cloning children appends new
	// pairs (picked up by the next fixpoint pass), and the ordering
	// makes clone node IDs — and so every witness — deterministic.
	pairs := a.pairScratch[:0]
	for pk := range a.clonePairs {
		pairs = append(pairs, pk)
	}
	slices.SortFunc(pairs, func(x, y clonePair) int {
		if c := strings.Compare(x.ctx, y.ctx); c != 0 {
			return c
		}
		return cmp.Compare(x.orig, y.orig)
	})
	a.pairScratch = pairs
	for _, pk := range pairs {
		c := a.clonePairs[pk]
		fkeys := a.keyScratch[:0]
		for fkey := range a.fields[pk.orig] {
			fkeys = append(fkeys, fkey)
		}
		slices.Sort(fkeys)
		a.keyScratch = fkeys
		for _, fkey := range fkeys {
			dst := a.fields[c][fkey]
			grew := false
			for _, m := range a.snapshot(a.fields[pk.orig][fkey]) {
				if dst.Add(a.cloneOf(pk.ctx, m)) {
					grew = true
				}
			}
			if grew {
				a.putField(c, fkey, dst)
			}
		}
	}
}

// transfer applies one instruction's constraints under one analysis
// context of its enclosing function.
func (a *Analysis) transfer(in *ir.Instr, c Ctx) {
	switch in.Op {
	case ir.OpNew, ir.OpNewArray:
		a.addNode(in.Dst, c, a.nodeForAlloc(in, c))

	case ir.OpPhi, ir.OpCopy:
		if in.Dst == nil || !lang.IsRef(in.Dst.Type) {
			return
		}
		for _, arg := range in.Args {
			a.addSet(in.Dst, c, a.pts[valCtx{arg, c}])
		}

	case ir.OpLoad:
		if !lang.IsRef(in.Dst.Type) {
			return
		}
		key := FieldKey(in.Field)
		for _, n := range a.pts[valCtx{in.Args[0], c}] {
			a.addSet(in.Dst, c, a.fields[n][key])
		}

	case ir.OpStore:
		if !lang.IsRef(in.Field.Type) {
			return
		}
		if a.killed[instrCtx{in, c}] {
			return // strongly updated by a later store in this block
		}
		key := FieldKey(in.Field)
		src := a.pts[valCtx{in.Args[1], c}]
		if len(src) == 0 {
			return
		}
		for _, n := range a.pts[valCtx{in.Args[0], c}] {
			a.addField(n, key, src)
		}

	case ir.OpLoadIdx:
		if !lang.IsRef(in.Dst.Type) {
			return
		}
		for _, n := range a.pts[valCtx{in.Args[0], c}] {
			a.addSet(in.Dst, c, a.fields[n][ElemKey])
		}

	case ir.OpStoreIdx:
		if !lang.IsRef(in.Args[2].Type) {
			return
		}
		src := a.pts[valCtx{in.Args[2], c}]
		if len(src) == 0 {
			return
		}
		for _, n := range a.pts[valCtx{in.Args[0], c}] {
			a.addField(n, ElemKey, src)
		}

	case ir.OpLoadStatic:
		if !lang.IsRef(in.Field.Type) {
			return
		}
		a.addSet(in.Dst, c, a.globals[in.Field])

	case ir.OpStoreStatic:
		if !lang.IsRef(in.Field.Type) {
			return
		}
		if s := a.globals[in.Field]; s.AddAll(a.pts[valCtx{in.Args[0], c}]) {
			a.globals[in.Field] = s
			a.changed = true
		}

	case ir.OpCall:
		a.transferCall(in, c, false)

	case ir.OpRemoteCall:
		a.transferCall(in, c, true)
	}
}

// argCtx and retCtx are ArgCtx and RetCtx built once per callee and
// per site of the region, not once per transfer per fixpoint pass.
func (a *Analysis) argCtx(callee *lang.MethodDecl) string {
	ctx, ok := a.argCtxs[callee]
	if !ok {
		ctx = ArgCtx(callee)
		a.argCtxs[callee] = ctx
	}
	return ctx
}

func (a *Analysis) retCtx(siteID int) string {
	ctx, ok := a.retCtxs[siteID]
	if !ok {
		ctx = RetCtx(siteID)
		a.retCtxs[siteID] = ctx
	}
	return ctx
}

// transferCall binds arguments to parameters and returns to the call
// destination. Direct calls bind into the context the prepass assigned
// to this call site (a dedicated per-site summary, or MergedCtx for
// recursion/budget overflow); remote calls bind into the callee's
// merged context and clone the argument and return graphs, reflecting
// RMI's by-copy semantics. The receiver (Args[0] / `this`) of a remote
// call is a remote reference and is NOT copied.
func (a *Analysis) transferCall(in *ir.Instr, c Ctx, remote bool) {
	callee, ok := a.Prog.FuncOf[in.Callee]
	if !ok {
		return // bodiless method: no summary
	}
	calleeCtx := MergedCtx
	if !remote {
		calleeCtx = a.ctxOfCall[in]
	}
	for i, arg := range in.Args {
		if i >= len(callee.Params) {
			break
		}
		param := callee.Params[i]
		if !lang.IsRef(param.Type) || !lang.IsRef(arg.Type) {
			continue
		}
		src := a.pts[valCtx{arg, c}]
		if len(src) == 0 {
			continue
		}
		receiver := i == 0 && !in.Callee.Static
		if !remote || receiver {
			a.addSet(param, calleeCtx, src)
			continue
		}
		argCtx := a.argCtx(in.Callee)
		for _, n := range a.snapshot(src) {
			a.addNode(param, calleeCtx, a.cloneOf(argCtx, n))
		}
	}
	if in.Dst == nil || !lang.IsRef(in.Dst.Type) {
		return
	}
	if !remote {
		for _, rv := range ir.ReturnValues(callee) {
			a.addSet(in.Dst, c, a.pts[valCtx{rv, calleeCtx}])
		}
		return
	}
	retSet := NodeSet(a.idScratch[:0])
	for _, rv := range ir.ReturnValues(callee) {
		retSet.AddAll(a.pts[valCtx{rv, calleeCtx}])
	}
	a.idScratch = retSet
	if len(retSet) == 0 {
		return
	}
	retCtx := a.retCtx(in.SiteID)
	for _, n := range retSet {
		a.addNode(in.Dst, c, a.cloneOf(retCtx, n))
	}
}
