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

// AnalyzeOpts is the analysis driver (DESIGN.md §16). It partitions
// the program into analysis regions (weakly connected components of
// the call + shared-static graph, computed by internal/heap/sched) and
// solves them as one Analysis, one region after the other, each until
// a pass over it changes nothing.
//
// With strong updates enabled the solve runs twice: the first run is a
// standard weak-update fixpoint; its final (sound, over-approximate)
// points-to sets justify a kill set of dead stores; the second run
// re-solves with killed stores skipped. The second run only ever
// removes constraints, so its sets are subsets of the first run's —
// every singleton that justified a kill stays a singleton (or shrinks
// to empty), keeping the kills justified against the final result.
func AnalyzeOpts(prog *ir.Program, opts Options) *Analysis {
	start := time.Now()
	plan := sched.BuildPlan(prog)
	regions := make([][]*ir.Func, len(plan.Components))
	for i, comp := range plan.Components {
		regions[i] = make([]*ir.Func, len(comp.Order))
		for j, fi := range comp.Order {
			regions[i][j] = plan.Funcs[fi]
		}
	}
	recursive := map[*ir.Func]bool{}
	for fi, r := range plan.Recursive {
		if r {
			recursive[plan.Funcs[fi]] = true
		}
	}

	a := runAnalysis(prog, opts, regions, recursive, nil)
	if opts.StrongUpdates {
		if kills := a.computeKills(); len(kills) > 0 {
			a = runAnalysis(prog, opts, regions, recursive, kills)
			a.StrongKills = len(kills)
		}
	}
	a.Cost = CostStats{
		Functions:  len(prog.Funcs),
		SCCs:       len(plan.SCCs),
		Components: len(plan.Components),
		Waves:      plan.Waves,
	}
	a.Cost.fillFromAnalysis(a)
	a.Cost.WallNS = time.Since(start).Nanoseconds()
	return a
}

// runAnalysis is one complete fixpoint run: context prepass over the
// regions' functions, then, region by region, passes of chaotic
// iteration over every (function, live context, instruction) triple of
// the region, each pass followed by the region's clone-edge mirroring.
// Each region is in bottom-up wave order — callees are visited before
// callers within a pass, so summaries usually stabilize in few passes
// — and the order is a fixed input, keeping node discovery (and so all
// numbering) deterministic.
//
// A region is done after its first pass that changed nothing. No fact
// crosses a region boundary (the sched partition invariant), so that
// region is at its fixpoint and no later region can change its inputs:
// the result is the plain fixpoint over every function, without the
// passes that would re-walk converged regions.
func runAnalysis(prog *ir.Program, opts Options, regions [][]*ir.Func, recursive map[*ir.Func]bool, killed map[instrCtx]bool) *Analysis {
	a := &Analysis{
		Prog:       prog,
		Opts:       opts,
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
	for _, funcs := range regions {
		a.funcs = append(a.funcs, funcs...)
	}
	a.buildContexts()
	for _, funcs := range regions {
		a.pairs = a.pairs[:0]
		for passes := 1; ; passes++ {
			a.changed = false
			for _, f := range funcs {
				for _, c := range a.ctxsOf[f] {
					for _, b := range f.Blocks {
						for _, in := range b.Instrs {
							a.transfer(in, c)
						}
					}
				}
			}
			a.walked += len(funcs)
			a.mirrorCloneEdges()
			if !a.changed {
				a.Iterations = max(a.Iterations, passes)
				break
			}
			if passes == maxIterations {
				panic("heap: fixpoint did not terminate (tuple memoization broken)")
			}
		}
	}
	return a
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
		a.pairs = append(a.pairs, pk)
		a.changed = true
	}
	return c
}

// mirrorCloneEdges keeps the clone subgraphs of the region being
// solved structurally parallel to their origins: whenever orig.f may
// point to m, clone.f may point to cloneOf(ctx, m). A pair's context
// names a callee or a remote site, both owned by exactly one region,
// so the region's own pairs are all there is to mirror.
func (a *Analysis) mirrorCloneEdges() {
	// Walk the pairs present now, sorted: cloning children appends new
	// pairs (picked up by the next pass) behind them, and the ordering
	// makes clone node IDs — and so every witness — deterministic.
	pairs := a.pairs
	slices.SortFunc(pairs, func(x, y clonePair) int {
		if c := strings.Compare(x.ctx, y.ctx); c != 0 {
			return c
		}
		return cmp.Compare(x.orig, y.orig)
	})
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
