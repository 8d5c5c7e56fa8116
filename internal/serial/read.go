package serial

import (
	"fmt"

	"cormi/internal/model"
	"cormi/internal/simtime"
	"cormi/internal/stats"
	"cormi/internal/wire"
)

// MaxWireValues bounds the value count a message header may claim.
// Real call sites have a handful of arguments/returns; anything larger
// is a corrupted or hostile header, and honoring it would let a single
// bad frame drive an arbitrarily large allocation.
const MaxWireValues = 1 << 16

// MaxDecodeDepth caps reference nesting. Legitimate graphs nest one
// level per parent-child edge — the paper's deepest structure is a
// 100-element linked list — so 4096 leaves enormous headroom while
// stopping a hostile frame from exhausting the goroutine stack with a
// marker-per-byte nesting bomb. The trailing-link loop of readRef uses
// no stack but still counts a level per node: the set of frames the
// decoder accepts is a property of the wire format, not of how this
// implementation happens to walk it.
const MaxDecodeDepth = 4096

// ReadValuesScratch deserializes n values written by WriteValues under
// the same configuration. In site mode, plans must match the writer's
// plans. cached, when non-nil, supplies per-value root objects from a
// previous invocation (the reuse optimization, §3.3); the returned
// roots slice holds the object graphs now backing each reference value
// so the caller can stash them back into the reuse cache; it is nil
// when the message carried no reference and cached was not recycled.
//
// scratch and cached double as storage: when scratch has capacity for
// n values it backs the returned vals slice, and when cached has
// exactly n slots it is recycled as the returned roots slice (every
// slot is rewritten, so a stale graph is never reported as this
// message's root). With both supplied — the reuse-cache hot path —
// deserialization allocates nothing beyond objects the donor graphs
// cannot absorb.
func ReadValuesScratch(m *wire.Message, reg *model.Registry, n int, plans []*Plan, cfg Config, cached []*model.Object, scratch []model.Value, c *stats.Counters) (vals []model.Value, roots []*model.Object, ops simtime.OpCount, err error) {
	if n < 0 || n > MaxWireValues {
		return nil, nil, ops, fmt.Errorf("%w: implausible value count %d", wire.ErrMalformedFrame, n)
	}
	if cfg.Mode == ModeSite && len(plans) != n {
		return nil, nil, ops, fmt.Errorf("serial: site mode with %d plans for %d values", len(plans), n)
	}
	rc := getReadCtx(m, reg, c, cfg.Hint)
	vals, roots, err = readBody(rc, n, plans, cfg, cached, scratch)
	if err == nil && cfg.Hint != nil {
		cfg.Hint.remember(rc)
	}
	ops = rc.ops
	putReadCtx(rc)
	return vals, roots, ops, err
}

func readBody(rc *readCtx, n int, plans []*Plan, cfg Config, cached []*model.Object, scratch []model.Value) (vals []model.Value, roots []*model.Object, err error) {
	m := rc.m
	if cap(scratch) >= n {
		vals = scratch[:n]
	} else {
		vals = make([]model.Value, n)
	}
	if len(cached) == n {
		// Recycle the reuse-cache slot slice as the roots slice: old
		// donors are read out below before each slot is overwritten.
		roots = cached
	}
	// Otherwise roots is made at the first reference, and only for a
	// reusing reader, the one caller that reads it: a message carrying
	// no reference, or read without reuse, returns nil roots and costs
	// no allocation for them.
	for i := 0; i < n; i++ {
		var kind model.FieldKind
		var np *NodePlan
		var old *model.Object
		if cfg.Mode == ModeClass {
			kind = model.FieldKind(m.ReadU8())
		} else {
			p := plans[i]
			kind = p.Kind
			np = p.Root
			if cfg.Reuse && p.Reusable && i < len(cached) {
				old = cached[i]
			}
		}
		// old is captured; clear the slot so a non-ref value leaves no
		// stale donor behind when roots aliases cached.
		if roots != nil {
			roots[i] = nil
		}
		switch kind {
		case model.FInt:
			vals[i] = model.Int(m.ReadInt64())
		case model.FDouble:
			vals[i] = model.Double(m.ReadFloat64())
		case model.FBool:
			vals[i] = model.Bool(m.ReadBool())
		case model.FString:
			s := m.ReadString()
			if cfg.Mode == ModeClass {
				rc.dynString(len(s))
			}
			vals[i] = model.Str(s)
		case model.FRef:
			o, rerr := readRef(rc, np, old)
			if rerr != nil {
				return nil, nil, rerr
			}
			vals[i] = model.Ref(o)
			if roots == nil && cfg.Reuse {
				roots = make([]*model.Object, n)
			}
			if roots != nil {
				roots[i] = o
			}
		default:
			if m.Err() != nil {
				return nil, nil, m.Err()
			}
			return nil, nil, fmt.Errorf("%w: bad value kind %d at index %d", wire.ErrMalformedFrame, kind, i)
		}
	}
	if m.Err() != nil {
		return nil, nil, m.Err()
	}
	return vals, roots, nil
}

// readRef reads one reference written by writeRef. old, when non-nil,
// is the object deserialized at this position by the previous
// invocation; if its shape matches, it is overwritten in place instead
// of allocating (Figure 13).
//
// Like writeRef it loops instead of recursing when a planned object's
// last step is a planned reference: each node of the chain is filled
// up to its link, stored in its parent's link field, and the loop moves
// on to the link. Handles are registered and depth is counted exactly
// as the recursion would — one level per node, restored on exit — so
// the same frames are accepted and rejected.
func readRef(rc *readCtx, np *NodePlan, old *model.Object) (*model.Object, error) {
	var (
		root   *model.Object // the reference this call was asked to read
		parent *model.Object // node whose trailing link is being read; nil at the root
		field  int           // parent's link field
		err    error
	)
	entryDepth := rc.depth
	for {
		if rc.depth++; rc.depth > MaxDecodeDepth {
			err = fmt.Errorf("%w: reference nesting exceeds depth %d", wire.ErrMalformedFrame, MaxDecodeDepth)
			break
		}
		var o *model.Object
		var link *Step // set when the walk continues at o's trailing link
		switch marker := rc.m.ReadU8(); marker {
		case refNull:
		case refHandle:
			h := rc.m.ReadInt32()
			o = rc.resolve(h)
			if o == nil && rc.m.Err() == nil {
				err = fmt.Errorf("%w: dangling handle %d (table has %d entries)",
					wire.ErrMalformedFrame, h, len(rc.handles))
			}
		case refNewDynamic:
			o, err = readDynamicBody(rc)
		case refNew:
			switch {
			case np == nil:
				err = fmt.Errorf("%w: planned object on wire but no plan on reader", wire.ErrMalformedFrame)
			case np.Class.Kind != model.KObject:
				o, err = readPlannedArray(rc, np, old)
			default:
				if rc.takeDonor(old, np.Class) {
					o = old
					rc.reused(o)
				} else {
					o = rc.newObject(np.Class)
					rc.allocated(o)
				}
				rc.register(o)
				steps := np.Steps
				if last := len(steps) - 1; last >= 0 && steps[last].Op == OpRef {
					link, steps = &steps[last], steps[:last]
				}
				err = readSteps(rc, o, steps, o == old)
			}
		default:
			if err = rc.m.Err(); err == nil {
				err = fmt.Errorf("%w: bad reference marker %d", wire.ErrMalformedFrame, marker)
			}
		}
		if err != nil {
			break
		}
		if parent == nil {
			root = o
		} else {
			parent.Fields[field] = model.Ref(o)
		}
		if link == nil {
			break
		}
		// Continue at o's trailing link; its previous referent is the
		// donor when o itself was reused.
		var oldChild *model.Object
		if o == old {
			oldChild = o.Fields[link.Field].O
		}
		parent, field, np, old = o, link.Field, link.Target, oldChild
	}
	rc.depth = entryDepth
	if err != nil {
		return nil, err
	}
	return root, nil
}

// newObject carves a zeroed instance of the KObject class c, its field
// vector included, from the message's slabs. The slabs hand out zeroed
// memory, so only the class, the vector and each field's kind are
// stored.
func (rc *readCtx) newObject(c *model.Class) *model.Object {
	all := c.AllFields()
	o := rc.objs.New()
	o.Class = c
	o.Fields = rc.fields.Slice(len(all))
	for i := range all {
		o.Fields[i].Kind = all[i].Kind
	}
	return o
}

// newArray carves an array object of class c from the message's slabs;
// the caller stores its payload.
func (rc *readCtx) newArray(c *model.Class) *model.Object {
	o := rc.objs.New()
	o.Class = c
	return o
}

// dynString accounts for deserializing a string through the dynamic
// path: two allocations (String + char[]), two dynamic deserializer
// invocations, two type descriptors to resolve.
func (rc *readCtx) dynString(payload int) {
	rc.ops.SerializerCalls += 2
	rc.ops.TypeOps += 2
	rc.ops.Allocs += 2
	rc.allocBytes += int64(32 + payload)
}

// dynArrayIntrospect mirrors the write-side array examination cost.
func (rc *readCtx) dynArrayIntrospect(n int) {
	rc.ops.IntrospectOps += int64(n/4) + 1
}

// readDynamicBody reconstructs an object from its explicit class ID —
// the receiver must parse the type information and map the descriptor
// to a class ("hash a type descriptor to vtable pointers", §4). Every
// object it builds is fresh, carved zeroed with its field kinds set, so
// each field read stores only the member its kind uses.
func readDynamicBody(rc *readCtx) (*model.Object, error) {
	id := rc.m.ReadInt32()
	if rc.m.Err() != nil {
		return nil, rc.m.Err()
	}
	class, ok := rc.class(id)
	if !ok {
		return nil, fmt.Errorf("%w: unknown class ID %d", wire.ErrMalformedFrame, id)
	}
	rc.ops.TypeOps++
	rc.ops.SerializerCalls++
	switch class.Kind {
	case model.KObject:
		o := rc.newObject(class)
		rc.register(o)
		rc.allocated(o)
		for i := range o.Fields {
			rc.ops.IntrospectOps++
			f := &o.Fields[i]
			switch f.Kind {
			case model.FInt:
				f.I = rc.m.ReadInt64()
			case model.FDouble:
				f.D = rc.m.ReadFloat64()
			case model.FBool:
				if rc.m.ReadBool() {
					f.I = 1
				}
			case model.FString:
				f.S = rc.m.ReadString()
				rc.dynString(len(f.S))
			case model.FRef:
				child, err := readRef(rc, nil, nil)
				if err != nil {
					return nil, err
				}
				f.O = child
			}
		}
		return o, nil
	case model.KDoubleArray:
		vs, _ := rc.m.ReadFloat64SliceInto(nil, rc.doubles.Slice)
		rc.dynArrayIntrospect(len(vs))
		o := rc.newArray(class)
		o.Doubles = vs
		rc.register(o)
		rc.allocated(o)
		rc.ops.Elems += int64(len(vs))
		return o, nil
	case model.KIntArray:
		vs, _ := rc.m.ReadInt64SliceInto(nil, rc.ints.Slice)
		rc.dynArrayIntrospect(len(vs))
		o := rc.newArray(class)
		o.Ints = vs
		rc.register(o)
		rc.allocated(o)
		rc.ops.Elems += int64(len(vs))
		return o, nil
	case model.KRefArray:
		n := int(rc.m.ReadInt32())
		if rc.m.Err() != nil {
			return nil, rc.m.Err()
		}
		// Each element costs at least one marker byte on the wire, so a
		// declared length beyond the remaining payload is a lie — check
		// before the carve so a 64-byte hostile frame cannot commit a
		// multi-MB element slice.
		if n < 0 || n > rc.m.Remaining() {
			return nil, fmt.Errorf("%w: ref-array length %d with %d payload bytes remaining",
				wire.ErrMalformedFrame, n, rc.m.Remaining())
		}
		rc.dynArrayIntrospect(n)
		o := rc.newArray(class)
		o.Refs = rc.refs.Slice(n)
		rc.register(o)
		rc.allocated(o)
		for i := 0; i < n; i++ {
			child, err := readRef(rc, nil, nil)
			if err != nil {
				return nil, err
			}
			o.Refs[i] = child
		}
		return o, nil
	}
	return nil, fmt.Errorf("serial: bad class kind %v", class.Kind)
}

// readSteps fills the fields of a planned KObject — no type
// information is read, field reads are inlined. reused reports that o
// is the previous invocation's object being overwritten in place, so
// its current referents are the donors for its reference fields.
func readSteps(rc *readCtx, o *model.Object, steps []Step, reused bool) error {
	for i := range steps {
		s := &steps[i]
		switch s.Op {
		case OpInt:
			o.Fields[s.Field] = model.Int(rc.m.ReadInt64())
		case OpDouble:
			o.Fields[s.Field] = model.Double(rc.m.ReadFloat64())
		case OpBool:
			o.Fields[s.Field] = model.Bool(rc.m.ReadBool())
		case OpString:
			o.Fields[s.Field] = model.Str(rc.m.ReadString())
		case OpRef, OpRefDynamic:
			var target *NodePlan
			var oldChild *model.Object
			if s.Op == OpRef {
				target = s.Target
				if reused {
					oldChild = o.Fields[s.Field].O
				}
			}
			child, err := readRef(rc, target, oldChild)
			if err != nil {
				return err
			}
			o.Fields[s.Field] = model.Ref(child)
			continue
		}
		rc.ops.InlinedWrites++
	}
	return nil
}

// readPlannedArray reconstructs an array whose class is known from the
// call site plan, overwriting the previous invocation's array in place
// when its length matches.
func readPlannedArray(rc *readCtx, np *NodePlan, old *model.Object) (*model.Object, error) {
	switch np.Class.Kind {
	case model.KDoubleArray:
		var dst []float64
		donor := rc.takeDonor(old, np.Class)
		if donor {
			dst = old.Doubles
		}
		vs, fits := rc.m.ReadFloat64SliceInto(dst, rc.doubles.Slice)
		rc.ops.Elems += int64(len(vs))
		rc.ops.InlinedWrites++
		if fits && donor { // a nil dst "fits" an empty array: that is no reuse
			old.Doubles = vs
			rc.reused(old)
			rc.register(old)
			return old, nil
		}
		o := rc.newArray(np.Class)
		o.Doubles = vs
		rc.allocated(o)
		rc.register(o)
		return o, nil
	case model.KIntArray:
		var dst []int64
		donor := rc.takeDonor(old, np.Class)
		if donor {
			dst = old.Ints
		}
		vs, fits := rc.m.ReadInt64SliceInto(dst, rc.ints.Slice)
		rc.ops.Elems += int64(len(vs))
		rc.ops.InlinedWrites++
		if fits && donor { // a nil dst "fits" an empty array: that is no reuse
			old.Ints = vs
			rc.reused(old)
			rc.register(old)
			return old, nil
		}
		o := rc.newArray(np.Class)
		o.Ints = vs
		rc.allocated(o)
		rc.register(o)
		return o, nil
	case model.KRefArray:
		n := int(rc.m.ReadInt32())
		if rc.m.Err() != nil {
			return nil, rc.m.Err()
		}
		// Same payload bound as the dynamic path: ≥1 marker byte per
		// element, so the declared length can never exceed what's left.
		if n < 0 || n > rc.m.Remaining() {
			return nil, fmt.Errorf("%w: ref-array length %d with %d payload bytes remaining",
				wire.ErrMalformedFrame, n, rc.m.Remaining())
		}
		rc.ops.InlinedWrites++
		var o *model.Object
		reuse := rc.takeDonor(old, np.Class) && len(old.Refs) == n
		if reuse {
			o = old
			rc.reused(o)
		} else {
			o = rc.newArray(np.Class)
			o.Refs = rc.refs.Slice(n)
			rc.allocated(o)
		}
		rc.register(o)
		for i := 0; i < n; i++ {
			var oldChild *model.Object
			if reuse {
				oldChild = o.Refs[i]
			}
			child, err := readRef(rc, np.Elem, oldChild)
			if err != nil {
				return nil, err
			}
			o.Refs[i] = child
		}
		return o, nil
	}
	return nil, fmt.Errorf("serial: bad plan class kind %v", np.Class.Kind)
}
