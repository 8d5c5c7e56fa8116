package heap

import (
	"cormi/internal/ir"
	"cormi/internal/lang"
)

// mergeParts stitches the per-region analyses into the program-wide
// Analysis. Each part carries region-local node IDs (dense from 0)
// and context numbers (MergedCtx plus dense dedicated contexts from
// 1); the merge relocates both by cumulative offsets in region order.
// Because region order (minimum member function index) and each
// part's internal numbering are deterministic, the merged numbering
// is a pure function of the program — independent of worker count
// and scheduling.
//
// No key can collide across parts: points-to keys are per-function
// SSA values, allocation keys are per-instruction, static fields
// couple all their users into one region, and clone contexts embed a
// callee qualified name or a program-unique remote site number, both
// owned by exactly one region.
func mergeParts(prog *ir.Program, opts Options, parts []*Analysis) *Analysis {
	var nNodes, nPts, nAll, nAllocs, nMemo, nPairs, nCalls int
	for _, p := range parts {
		nNodes += len(p.Nodes)
		nPts += len(p.pts)
		nAll += len(p.ptsAll)
		nAllocs += len(p.allocNode)
		nMemo += len(p.cloneMemo)
		nPairs += len(p.clonePairs)
		nCalls += len(p.ctxOfCall)
	}
	a := &Analysis{
		Prog:            prog,
		Opts:            opts,
		funcs:           prog.Funcs,
		Nodes:           make([]*Node, 0, nNodes),
		pts:             make(map[valCtx]NodeSet, nPts),
		ptsAll:          make(map[*ir.Value]NodeSet, nAll),
		fields:          make([]map[string]NodeSet, 0, nNodes),
		globals:         make(map[*lang.FieldDecl]NodeSet),
		allocNode:       make(map[allocKey]NodeID, nAllocs),
		cloneMemo:       make(map[cloneKey]NodeID, nMemo),
		clonePairs:      make(map[clonePair]NodeID, nPairs),
		ctxsOf:          make(map[*ir.Func][]Ctx, len(prog.Funcs)),
		ctxOfCall:       make(map[*ir.Instr]Ctx, nCalls),
		recursive:       map[*ir.Func]bool{},
		hasCaller:       map[*ir.Func]bool{},
		BudgetFallbacks: map[string]int{},
		ctxSite:         []*ir.Instr{nil},
	}
	var nodeBase NodeID
	var ctxBase Ctx
	for _, p := range parts {
		remapCtx := func(c Ctx) Ctx {
			if c == MergedCtx {
				return MergedCtx
			}
			return c + ctxBase
		}
		// The parts are private to this merge (freshly solved), so
		// their nodes, sets, field maps and context lists are
		// relocated in place and adopted, not copied. A set's order
		// survives adding a constant.
		for _, n := range p.Nodes {
			n.ID += nodeBase
			n.Logical += int(nodeBase)
			if n.CloneOf >= 0 {
				n.CloneOf += nodeBase
			}
			n.Ctx = remapCtx(n.Ctx)
		}
		a.Nodes = append(a.Nodes, p.Nodes...)
		for _, m := range p.fields {
			for _, s := range m {
				s.relocate(nodeBase)
			}
		}
		a.fields = append(a.fields, p.fields...)
		for k, s := range p.pts {
			s.relocate(nodeBase)
			a.pts[valCtx{k.v, remapCtx(k.c)}] = s
		}
		for v, s := range p.ptsAll {
			s.relocate(nodeBase)
			a.ptsAll[v] = s
		}
		for fd, s := range p.globals {
			s.relocate(nodeBase)
			a.globals[fd] = s
		}
		for k, id := range p.allocNode {
			a.allocNode[allocKey{k.in, remapCtx(k.c)}] = id + nodeBase
		}
		for k, id := range p.cloneMemo {
			a.cloneMemo[k] = id + nodeBase
		}
		for k, id := range p.clonePairs {
			a.clonePairs[clonePair{ctx: k.ctx, orig: k.orig + nodeBase}] = id + nodeBase
		}
		a.ctxSite = append(a.ctxSite, p.ctxSite[1:]...)
		for f, cs := range p.ctxsOf {
			for i, c := range cs {
				cs[i] = remapCtx(c)
			}
			a.ctxsOf[f] = cs
		}
		for in, c := range p.ctxOfCall {
			a.ctxOfCall[in] = remapCtx(c)
		}
		for f, r := range p.recursive {
			if r {
				a.recursive[f] = true
			}
		}
		for f, h := range p.hasCaller {
			if h {
				a.hasCaller[f] = true
			}
		}
		for name, n := range p.BudgetFallbacks {
			a.BudgetFallbacks[name] += n
		}
		a.StrongKills += p.StrongKills
		if p.Iterations > a.Iterations {
			a.Iterations = p.Iterations
		}
		nodeBase += NodeID(len(p.Nodes))
		ctxBase += Ctx(len(p.ctxSite) - 1)
	}
	return a
}
