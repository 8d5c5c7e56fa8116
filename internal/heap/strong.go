package heap

import (
	"cormi/internal/ir"
	"cormi/internal/lang"
)

// computeKills finds reference stores that are strongly updated: a
// later OpStore in the SAME basic block overwrites the SAME field of
// the SAME base SSA value, with no potentially-observing instruction in
// between. For any concrete execution of the block, the object the
// base value names receives both stores back to back, so the first
// store's field edge can never be observed — the constraint is dead
// and the re-run analysis skips it.
//
// The guard rails, per the singleton/summary rule:
//
//   - the base value's points-to set (in this context) must be a
//     singleton non-summary allocation node, so the killed edge is
//     attributed to exactly one node that stands for one call-path's
//     objects (merged-context summaries of called functions and RMI
//     boundary clones conflate several paths and are never killed);
//   - any OpLoad/OpLoadIdx (a field could be read through an alias)
//     or any call (the callee could read anything reachable) between
//     the two stores vetoes the kill;
//   - only scalar field stores participate: an array store (OpStoreIdx
//     through ElemKey) summarizes every slot of the array, so a later
//     store never provably overwrites an earlier one.
//
// Kills are justified by the finished first-pass (weak) fixpoint: the
// second pass only removes constraints, so its points-to sets are
// subsets of the first pass's and every singleton stays a singleton.
func (a *Analysis) computeKills() map[instrCtx]bool {
	kills := map[instrCtx]bool{}
	for _, f := range a.funcs {
		for _, c := range a.ctxsOf[f] {
			for _, b := range f.Blocks {
				a.killsInBlock(b, c, kills)
			}
		}
	}
	return kills
}

func (a *Analysis) killsInBlock(b *ir.Block, c Ctx, kills map[instrCtx]bool) {
	for i, in := range b.Instrs {
		if in.Op != ir.OpStore || !lang.IsRef(in.Field.Type) {
			continue
		}
		if !a.strongBase(in.Args[0], c) {
			continue
		}
	scan:
		for _, later := range b.Instrs[i+1:] {
			switch later.Op {
			case ir.OpLoad, ir.OpLoadIdx, ir.OpCall, ir.OpRemoteCall:
				break scan // a potential observer: the edge may be seen
			case ir.OpStore:
				if later.Field == in.Field && later.Args[0] == in.Args[0] {
					kills[instrCtx{in, c}] = true
					break scan
				}
			}
		}
	}
}

// strongBase reports whether stores through v (in context c) may be
// strongly updated: v must name exactly one non-summary allocation
// node.
func (a *Analysis) strongBase(v *ir.Value, c Ctx) bool {
	s := a.pts[valCtx{v, c}]
	return len(s) == 1 && !a.Nodes[s[0]].Summary
}
