package core

import (
	"fmt"
	"strconv"

	"cormi/internal/heap"
	"cormi/internal/lang"
	"cormi/internal/model"
	"cormi/internal/serial"
)

// buildPlan derives the call-site-specific serialization plan for one
// argument or return value with static type declType whose possible
// heap nodes are nodes (§3.1). Where the heap analysis pins the exact
// class of a referent, the plan inlines it; where it cannot, the plan
// falls back to the dynamic (class-specific) path for that subtree —
// "it may be impossible to inline at another call site".
func (r *Result) buildPlan(siteName string, nodes heap.NodeSet, declType lang.Type) (*serial.Plan, error) {
	kind, _, err := r.modelType(declType)
	if err != nil {
		return nil, err
	}
	if kind != model.FRef {
		return serial.PrimitivePlan(siteName, kind), nil
	}
	memo := &planMemo{plans: map[string]*serial.NodePlan{}}
	root, err := r.buildNodePlan(nodes, declType, memo)
	if err != nil {
		return nil, err
	}
	p := &serial.Plan{Site: siteName, Kind: model.FRef, Root: root}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// planMemo maps (node set, static type) to the NodePlan under
// construction for it, for recursion detection: a linked list's next
// field maps back to the same key and therefore to the same
// (self-referential) NodePlan. The key is the set's ids, already in
// canonical order, then the type, written into one reused buffer.
type planMemo struct {
	plans map[string]*serial.NodePlan
	key   []byte
}

// setKey leaves the key of (nodes, t) in m.key.
func (m *planMemo) setKey(nodes heap.NodeSet, t lang.Type) {
	m.key = m.key[:0]
	for _, id := range nodes {
		m.key = append(strconv.AppendInt(m.key, int64(id), 10), ',')
	}
	m.key = append(append(m.key, '@'), t.String()...)
}

// buildNodePlan returns the object plan for a reference whose runtime
// classes are those of nodes, or nil when the reference is polymorphic
// (several possible classes) and must stay on the dynamic path.
func (r *Result) buildNodePlan(nodes heap.NodeSet, declType lang.Type, memo *planMemo) (*serial.NodePlan, error) {
	// Determine the single concrete type, if any.
	concrete := r.concreteType(nodes, declType)
	if concrete == nil {
		return nil, nil // polymorphic: dynamic fallback
	}
	memo.setKey(nodes, concrete)
	if np, ok := memo.plans[string(memo.key)]; ok {
		return np, nil
	}

	switch t := concrete.(type) {
	case *lang.ArrayType:
		mc, err := r.arrayClass(t)
		if err != nil {
			return nil, err
		}
		np := &serial.NodePlan{Class: mc}
		memo.plans[string(memo.key)] = np
		if mc.Kind == model.KRefArray {
			var elems heap.NodeSet
			for _, id := range nodes {
				elems.AddAll(r.Heap.Field(id, heap.ElemKey))
			}
			elem, err := r.buildNodePlan(elems, t.Elem, memo)
			if err != nil {
				return nil, err
			}
			np.Elem = elem
		}
		return np, nil

	case *lang.ClassType:
		mc, ok := r.classOf[t.Decl]
		if !ok {
			return nil, fmt.Errorf("class %s not defined in model", t.Decl.Name)
		}
		np := &serial.NodePlan{Class: mc}
		memo.plans[string(memo.key)] = np
		for i, fd := range langFields(t.Decl) {
			step := serial.Step{Field: i, FieldName: fd.Name}
			switch ft := fd.Type.(type) {
			case *lang.PrimType:
				switch ft.Kind {
				case lang.PInt:
					step.Op = serial.OpInt
				case lang.PDouble:
					step.Op = serial.OpDouble
				case lang.PBoolean:
					step.Op = serial.OpBool
				case lang.PString:
					step.Op = serial.OpString
				default:
					return nil, fmt.Errorf("field %s.%s: bad type %s", t.Decl.Name, fd.Name, ft)
				}
			default:
				var targets heap.NodeSet
				for _, id := range nodes {
					targets.AddAll(r.Heap.Field(id, heap.FieldKey(fd)))
				}
				sub, err := r.buildNodePlan(targets, fd.Type, memo)
				if err != nil {
					return nil, err
				}
				if sub == nil {
					step.Op = serial.OpRefDynamic
				} else {
					step.Op = serial.OpRef
					step.Target = sub
				}
			}
			np.Steps = append(np.Steps, step)
		}
		return np, nil
	}
	return nil, nil
}

// concreteType returns the single runtime type of nodes, or — when the
// set is empty (only null, or values from unanalyzed code) — the
// declared type when that is safe to assume. A class type is safe
// because a runtime mismatch falls back dynamically; we still require
// the declared class itself (not an unknown subclass) to be the
// prediction. Returns nil when several distinct types are possible.
func (r *Result) concreteType(nodes heap.NodeSet, declType lang.Type) lang.Type {
	if len(nodes) == 0 {
		if lang.IsRef(declType) {
			return declType
		}
		return nil
	}
	var types []lang.Type
	for _, id := range nodes {
		t := r.Heap.Node(id).Type
		dup := false
		for _, u := range types {
			if lang.TypeEq(t, u) {
				dup = true
				break
			}
		}
		if !dup {
			types = append(types, t)
		}
	}
	if len(types) == 1 {
		return types[0]
	}
	// Multiple possible classes: polymorphic (the Figure 5 situation
	// merged at a single site).
	return nil
}
