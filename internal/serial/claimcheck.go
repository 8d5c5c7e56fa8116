package serial

import "cormi/internal/model"

// Claim checking (audit mode): re-verify at runtime, on sampled calls,
// the two compile-time claims the optimizer acts on — §3.2 "this
// message's graphs are repeat-free, the cycle table can be elided" and
// §3.3 "the cached donor graph has the shape the plan will overwrite".
// A violation means the static analysis mis-predicted the runtime heap
// and would have corrupted data silently; callers count it and fall
// back to the safe path instead.

// ClaimViolation describes one runtime refutation of a compile-time
// claim.
type ClaimViolation struct {
	Site  string // Plan.Site of the offending plan
	Index int    // value index within the message
	Claim string // "acyclic" or "reuse-shape"
	Class string // runtime class of the offending object
}

// CheckAcyclic walks the reference values whose plans claim the cycle
// table is unnecessary (NeedCycle=false) and reports the first object
// encountered twice, nil when the claim holds. The walk mirrors the
// compile-time traversal: ONE shared seen set across all claiming
// values, so the same object passed in two arguments (Figure 8) also
// refutes the claim. Values whose plans keep the table are skipped —
// their repeats are legal. The walk terminates on true cycles because
// it stops at the first repeat.
func CheckAcyclic(vals []model.Value, plans []*Plan) *ClaimViolation {
	seen := map[*model.Object]bool{}
	for i, v := range vals {
		if v.Kind != model.FRef || v.O == nil {
			continue
		}
		var p *Plan
		if i < len(plans) {
			p = plans[i]
		}
		if p == nil || p.NeedCycle {
			continue
		}
		if o := repeatIn(v.O, seen); o != nil {
			return &ClaimViolation{Site: p.Site, Index: i, Claim: "acyclic", Class: o.Class.Name}
		}
	}
	return nil
}

// repeatIn DFS-walks one object graph, returning the first object seen
// twice (nil for repeat-free graphs). Stopping at the first repeat
// bounds the walk even when the graph really is cyclic.
func repeatIn(o *model.Object, seen map[*model.Object]bool) *model.Object {
	if o == nil {
		return nil
	}
	if seen[o] {
		return o
	}
	seen[o] = true
	switch o.Class.Kind {
	case model.KObject:
		for i, f := range o.Class.AllFields() {
			if f.Kind != model.FRef {
				continue
			}
			if r := repeatIn(o.Fields[i].O, seen); r != nil {
				return r
			}
		}
	case model.KRefArray:
		for _, e := range o.Refs {
			if r := repeatIn(e, seen); r != nil {
				return r
			}
		}
	}
	return nil
}

// CheckReuseShape validates donor graphs taken from a ReuseCache
// against the plans about to overwrite them: a donor whose root class
// differs from the plan's statically predicted class refutes the reuse
// claim. Incompatible donors are nil'ed in place — the reader then
// allocates fresh objects instead of corrupting the overwrite — and
// every refutation is reported. (takeDonor would also refuse such a
// donor; the check exists to make the mis-prediction observable rather
// than silently absorbed.)
func CheckReuseShape(donors []*model.Object, plans []*Plan) []ClaimViolation {
	var out []ClaimViolation
	for i, d := range donors {
		if d == nil || i >= len(plans) {
			continue
		}
		p := plans[i]
		if p == nil || p.Kind != model.FRef || p.Root == nil {
			continue
		}
		if d.Class != p.Root.Class {
			out = append(out, ClaimViolation{Site: p.Site, Index: i, Claim: "reuse-shape", Class: d.Class.Name})
			donors[i] = nil
		}
	}
	return out
}
