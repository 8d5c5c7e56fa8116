package core

import (
	"fmt"

	"cormi/internal/heap"
	"cormi/internal/ir"
	"cormi/internal/lang"
	"cormi/internal/model"
)

// buildSites derives SiteInfo (plans + cycle + reuse + ack + leaf verdicts)
// for every remote call site in the program.
func (r *Result) buildSites() error {
	es := newEscapeState()
	lp := leafPass{r: r}
	seqPerFunc := map[*ir.Func]int{}
	for siteID, in := range r.IR.RemoteSites {
		si := &SiteInfo{SiteID: siteID}
		r.Sites = append(r.Sites, si)
		if in == nil {
			// Unreachable call site (code after return): nothing to
			// generate.
			si.Dead = true
			si.Name = fmt.Sprintf("dead.%d", siteID)
			continue
		}
		fn := in.Block.Func
		seqPerFunc[fn]++
		si.Name = fmt.Sprintf("%s.%d", fn.Name, seqPerFunc[fn])
		si.Callee = in.Callee
		si.Site = in
		si.IgnoreRet = ir.IgnoredReturn(in)
		si.Leaf = lp.leaf(in)
		if !lang.TypeEq(in.Callee.Ret, lang.VoidType) {
			si.NumRet = 1
		}

		// Serialized arguments: everything except the remote receiver.
		args := in.Args
		params := in.Callee.Params
		if !in.Callee.Static {
			args = args[1:]
		}
		var refArgSets []heap.NodeSet
		var refArgTypes []lang.Type
		for i, arg := range args {
			declType := arg.Type
			if i < len(params) {
				declType = params[i].Type
			}
			nodes := r.Heap.PointsTo(arg)
			plan, err := r.buildPlan(si.Name, nodes, declType)
			if err != nil {
				return fmt.Errorf("site %s arg %d: %w", si.Name, i, err)
			}
			si.ArgPlans = append(si.ArgPlans, plan)
			si.ArgNodes = append(si.ArgNodes, nodes)
			reusable := false
			var denied *EscapeWitness
			if lang.IsRef(declType) {
				refArgSets = append(refArgSets, nodes)
				refArgTypes = append(refArgTypes, declType)
				denied = r.argReuseDenial(es, in, nodes)
				reusable = denied == nil
			}
			si.ArgReusable = append(si.ArgReusable, reusable)
			si.ArgReuseDenied = append(si.ArgReuseDenied, denied)
			plan.Reusable = reusable
		}

		// §3.2: one shared traversal over all argument graphs decides
		// whether this message needs a cycle table.
		si.CycleWitness = r.Heap.CycleWitnessFrom(refArgSets)
		si.MayCycle = si.CycleWitness != nil
		for _, p := range si.ArgPlans {
			if p.Kind == model.FRef {
				p.NeedCycle = si.MayCycle
			}
		}

		// Return value.
		var retNodes heap.NodeSet
		if si.NumRet == 1 {
			for _, md := range r.IR.DispatchTargets(in.Callee) {
				if callee, ok := r.IR.FuncOf[md]; ok {
					for _, rv := range ir.ReturnValues(callee) {
						retNodes.AddAll(r.Heap.PointsTo(rv))
					}
				}
			}
			plan, err := r.buildPlan(si.Name+".ret", retNodes, in.Callee.Ret)
			if err != nil {
				return fmt.Errorf("site %s return: %w", si.Name, err)
			}
			si.RetNodes = retNodes
			si.RetCycleWitness = r.Heap.CycleWitnessFrom([]heap.NodeSet{retNodes})
			si.RetMayCycle = si.RetCycleWitness != nil
			if lang.IsRef(in.Callee.Ret) {
				si.RetReuseDenied = r.retReuseDenial(es, in, retNodes)
				si.RetReusable = si.RetReuseDenied == nil
			}
			plan.NeedCycle = si.RetMayCycle
			plan.Reusable = si.RetReusable
			si.RetPlans = append(si.RetPlans, plan)
		}

		// Opt-in future-work refinement (linear.go).
		if r.Opts.LinearListRefinement {
			r.refineLinear(si, refArgSets, refArgTypes, retNodes)
		}
	}
	return nil
}
