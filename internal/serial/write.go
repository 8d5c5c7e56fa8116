package serial

import (
	"fmt"

	"cormi/internal/model"
	"cormi/internal/simtime"
	"cormi/internal/stats"
	"cormi/internal/wire"
)

// Config selects which of the paper's optimizations are active for a
// message. The five evaluated configurations are:
//
//	class:             {Mode: ModeClass}
//	site:              {Mode: ModeSite}
//	site+cycle:        {Mode: ModeSite, CycleElim: true}
//	site+reuse:        {Mode: ModeSite, Reuse: true}
//	site+reuse+cycle:  {Mode: ModeSite, CycleElim: true, Reuse: true}
type Config struct {
	Mode      Mode
	CycleElim bool // honor Plan.NeedCycle instead of always creating tables
	Reuse     bool // honor Plan.Reusable (caller supplies the cache)
	// Hint is the reading side's memory of how much its last decoded
	// message carved; nil reads start every slab at its default size.
	Hint *SlabHint
}

// needTable decides whether this message requires a cycle table.
func needTable(vals []model.Value, plans []*Plan, cfg Config) bool {
	for i, v := range vals {
		if v.Kind != model.FRef || v.O == nil {
			continue
		}
		if cfg.Mode == ModeClass {
			return true
		}
		var p *Plan
		if i < len(plans) {
			p = plans[i]
		}
		if p == nil || !cfg.CycleElim || p.NeedCycle {
			return true
		}
	}
	return false
}

// WriteValues serializes vals into m under cfg. In site mode, plans
// must contain one entry per value (produced by the compiler for this
// call site). The returned OpCount feeds the virtual-time cost model.
func WriteValues(m *wire.Message, vals []model.Value, plans []*Plan, cfg Config, c *stats.Counters) (simtime.OpCount, error) {
	if cfg.Mode == ModeSite && len(plans) != len(vals) {
		return simtime.OpCount{}, fmt.Errorf("serial: site mode with %d plans for %d values", len(plans), len(vals))
	}
	w := getWriteCtx(m, c)
	err := writeBody(w, vals, plans, cfg)
	ops := w.ops
	putWriteCtx(w)
	return ops, err
}

func writeBody(w *writeCtx, vals []model.Value, plans []*Plan, cfg Config) error {
	if cfg.Mode == ModeClass && len(vals) > 0 {
		// Generic marshaler entry: protocol dispatch the call-site
		// specific stubs compile away (§3.1).
		w.ops.StubOps++
	}
	if needTable(vals, plans, cfg) {
		// The table the serializer conceptually creates per message; its
		// storage is the pooled context's, emptied by putWriteCtx.
		w.table = &w.wt
		w.ops.CycleTables++
	}
	for i, v := range vals {
		if cfg.Mode == ModeClass {
			// Self-describing: kind byte per value plus per-object
			// class IDs below.
			w.m.AppendByte(byte(v.Kind))
			w.typeBytes++
			if v.Kind == model.FString {
				w.dynString()
			}
			writeValue(w, v, nil)
		} else {
			p := plans[i]
			if p.Kind != v.Kind {
				return fmt.Errorf("serial: plan %s expects %v, got %v", p.Site, p.Kind, v.Kind)
			}
			writeValue(w, v, p.Root)
		}
	}
	return nil
}

// writeValue writes one value; np is the call-site object plan for
// reference values (nil selects the dynamic path).
func writeValue(w *writeCtx, v model.Value, np *NodePlan) {
	switch v.Kind {
	case model.FInt:
		w.m.AppendInt64(v.I)
		w.ops.InlinedWrites++
	case model.FDouble:
		w.m.AppendFloat64(v.D)
		w.ops.InlinedWrites++
	case model.FBool:
		w.m.AppendBool(v.AsBool())
		w.ops.InlinedWrites++
	case model.FString:
		w.m.AppendString(v.S)
		w.ops.InlinedWrites++
	case model.FRef:
		writeRef(w, v.O, np)
	}
}

// writeRef writes an object reference: null marker, cycle handle,
// plan-driven body (refNew, no type info) or dynamic body
// (refNewDynamic, explicit class ID).
//
// A planned object whose last step is a reference to a planned class —
// the LinkedList.Next shape — does not recurse for that step: the loop
// continues with the child, the tail call a native compiler gives the
// paper's generated marshalers. Every other reference (a link that is
// not the last field, array elements, the dynamic path) recurses.
func writeRef(w *writeCtx, o *model.Object, np *NodePlan) {
	for {
		if o == nil {
			w.m.AppendByte(refNull)
			return
		}
		if t := w.table; t != nil {
			w.ops.CycleLookups++
			if h, found := t.lookupOrAdd(o, int32(t.n)); found {
				w.m.AppendByte(refHandle)
				w.m.AppendInt32(h)
				return
			}
		}
		if np == nil || o.Class != np.Class {
			break
		}
		w.m.AppendByte(refNew)
		w.inlinedWrites++
		if np.Class.Kind != model.KObject {
			writePlannedArray(w, o, np)
			return
		}
		steps := np.Steps
		last := len(steps) - 1
		if last < 0 || steps[last].Op != OpRef {
			writeSteps(w, o, steps)
			return
		}
		writeSteps(w, o, steps[:last])
		o, np = o.Fields[steps[last].Field].O, steps[last].Target
	}
	// Dynamic path: class mode, polymorphic fallback, or a plan miss
	// (the object's runtime class differs from the static prediction).
	w.m.AppendByte(refNewDynamic)
	w.m.AppendInt32(o.Class.ID)
	w.typeBytes += 4
	w.ops.TypeOps++
	w.ops.SerializerCalls++
	writeDynamicBody(w, o)
}

// dynString accounts for serializing a string through the dynamic
// path: in Java a String is two heap objects (the String and its
// char[]), each with a dynamic serializer invocation and type
// information — overhead the call-site plans remove by knowing the
// field is a String statically.
func (w *writeCtx) dynString() {
	w.ops.SerializerCalls += 2
	w.ops.TypeOps += 2
	w.typeBytes += 8
}

// dynArrayIntrospect accounts for the class-mode examination of an
// array: "the arrays have to be inspected ... each sub array examined
// to compute the size of the array's payload" (§4).
func (w *writeCtx) dynArrayIntrospect(n int) {
	w.ops.IntrospectOps += int64(n/4) + 1
}

// writeDynamicBody emits an object through the per-class generated
// serializer: an introspection step per field, a dynamic serializer
// invocation per referred-to object, type information per object.
func writeDynamicBody(w *writeCtx, o *model.Object) {
	switch o.Class.Kind {
	case model.KObject:
		for i, f := range o.Class.AllFields() {
			w.ops.IntrospectOps++
			v := o.Fields[i]
			switch f.Kind {
			case model.FInt:
				w.m.AppendInt64(v.I)
			case model.FDouble:
				w.m.AppendFloat64(v.D)
			case model.FBool:
				w.m.AppendBool(v.AsBool())
			case model.FString:
				w.dynString()
				w.m.AppendString(v.S)
			case model.FRef:
				writeRef(w, v.O, nil)
			}
		}
	case model.KDoubleArray:
		w.dynArrayIntrospect(len(o.Doubles))
		w.m.AppendFloat64Slice(o.Doubles)
		w.ops.Elems += int64(len(o.Doubles))
	case model.KIntArray:
		w.dynArrayIntrospect(len(o.Ints))
		w.m.AppendInt64Slice(o.Ints)
		w.ops.Elems += int64(len(o.Ints))
	case model.KRefArray:
		w.dynArrayIntrospect(len(o.Refs))
		w.m.AppendInt32(int32(len(o.Refs)))
		for _, e := range o.Refs {
			writeRef(w, e, nil)
		}
	}
}

// writeSteps emits the fields of a planned KObject through the
// call-site-specific inlined code path: field writes are direct,
// statically known referents carry no type information.
func writeSteps(w *writeCtx, o *model.Object, steps []Step) {
	for i := range steps {
		s := &steps[i]
		v := &o.Fields[s.Field]
		switch s.Op {
		case OpInt:
			w.m.AppendInt64(v.I)
		case OpDouble:
			w.m.AppendFloat64(v.D)
		case OpBool:
			w.m.AppendBool(v.AsBool())
		case OpString:
			w.m.AppendString(v.S)
		case OpRef:
			writeRef(w, v.O, s.Target)
			continue
		case OpRefDynamic:
			writeRef(w, v.O, nil)
			continue
		}
		w.inlinedWrites++
		w.ops.InlinedWrites++
	}
}

// writePlannedArray emits a planned array: one bulk copy for the
// primitive kinds, a planned reference per element for KRefArray.
func writePlannedArray(w *writeCtx, o *model.Object, np *NodePlan) {
	w.ops.InlinedWrites++
	switch np.Class.Kind {
	case model.KDoubleArray:
		w.m.AppendFloat64Slice(o.Doubles)
		w.ops.Elems += int64(len(o.Doubles))
	case model.KIntArray:
		w.m.AppendInt64Slice(o.Ints)
		w.ops.Elems += int64(len(o.Ints))
	case model.KRefArray:
		w.m.AppendInt32(int32(len(o.Refs)))
		for _, e := range o.Refs {
			writeRef(w, e, np.Elem)
		}
	}
}
