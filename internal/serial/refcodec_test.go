package serial

import (
	"fmt"

	"cormi/internal/model"
	"cormi/internal/simtime"
	"cormi/internal/stats"
	"cormi/internal/wire"
)

// The reference codec: the wire format and its accounting written the
// obvious way — one recursion level per reference, Go maps for the
// cycle table and the donor set, every statistic bumped where it
// happens. It is the specification the production walkers (which loop
// on trailing links, share one pointer table and flush counters once
// per message) are tested against in differential_test.go: same bytes,
// same graphs, same stats.Snapshot and OpCount, same accept/reject
// decisions. Keep it plain; it is allowed to be slow.

type refWriter struct {
	m     *wire.Message
	st    stats.Snapshot
	ops   simtime.OpCount
	table map[*model.Object]int32 // nil when cycle detection is eliminated
}

// refWrite is the reference WriteValues.
func refWrite(vals []model.Value, plans []*Plan, cfg Config) ([]byte, stats.Snapshot, simtime.OpCount, error) {
	w := &refWriter{m: wire.NewMessage(0)}
	if cfg.Mode == ModeSite && len(plans) != len(vals) {
		return nil, w.st, w.ops, fmt.Errorf("serial: site mode with %d plans for %d values", len(plans), len(vals))
	}
	if cfg.Mode == ModeClass && len(vals) > 0 {
		w.ops.StubOps++
	}
	if needTable(vals, plans, cfg) {
		w.table = map[*model.Object]int32{}
		w.st.CycleTables++
		w.ops.CycleTables++
	}
	for i, v := range vals {
		var np *NodePlan
		if cfg.Mode == ModeClass {
			w.m.AppendByte(byte(v.Kind))
			w.st.TypeBytes++
			if v.Kind == model.FString {
				w.dynString()
			}
		} else {
			p := plans[i]
			if p.Kind != v.Kind {
				return w.m.Bytes(), w.st, w.ops, fmt.Errorf("serial: plan %s expects %v, got %v", p.Site, p.Kind, v.Kind)
			}
			np = p.Root
		}
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
			w.ref(v.O, np)
		}
	}
	return w.m.Bytes(), w.st, w.ops, nil
}

func (w *refWriter) dynString() {
	w.st.SerializerCalls += 2
	w.ops.SerializerCalls += 2
	w.st.TypeOps += 2
	w.ops.TypeOps += 2
	w.st.TypeBytes += 8
}

func (w *refWriter) introspectArray(n int) {
	steps := int64(n/4) + 1
	w.st.IntrospectOps += steps
	w.ops.IntrospectOps += steps
}

func (w *refWriter) ref(o *model.Object, np *NodePlan) {
	if o == nil {
		w.m.AppendByte(refNull)
		return
	}
	if w.table != nil {
		w.st.CycleLookups++
		w.ops.CycleLookups++
		if h, ok := w.table[o]; ok {
			w.m.AppendByte(refHandle)
			w.m.AppendInt32(h)
			return
		}
		w.table[o] = int32(len(w.table))
	}
	if np != nil && o.Class == np.Class {
		w.m.AppendByte(refNew)
		w.st.InlinedWrites++
		w.planned(o, np)
		return
	}
	w.m.AppendByte(refNewDynamic)
	w.m.AppendInt32(o.Class.ID)
	w.st.TypeBytes += 4
	w.st.TypeOps++
	w.ops.TypeOps++
	w.st.SerializerCalls++
	w.ops.SerializerCalls++
	w.dynamic(o)
}

func (w *refWriter) dynamic(o *model.Object) {
	switch o.Class.Kind {
	case model.KObject:
		for i, f := range o.Class.AllFields() {
			w.st.IntrospectOps++
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
				w.ref(v.O, nil)
			}
		}
	case model.KDoubleArray:
		w.introspectArray(len(o.Doubles))
		w.m.AppendFloat64Slice(o.Doubles)
		w.ops.Elems += int64(len(o.Doubles))
	case model.KIntArray:
		w.introspectArray(len(o.Ints))
		w.m.AppendInt64Slice(o.Ints)
		w.ops.Elems += int64(len(o.Ints))
	case model.KRefArray:
		w.introspectArray(len(o.Refs))
		w.m.AppendInt32(int32(len(o.Refs)))
		for _, e := range o.Refs {
			w.ref(e, nil)
		}
	}
}

func (w *refWriter) planned(o *model.Object, np *NodePlan) {
	switch np.Class.Kind {
	case model.KObject:
		for _, s := range np.Steps {
			v := o.Fields[s.Field]
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
				w.ref(v.O, s.Target)
				continue
			case OpRefDynamic:
				w.ref(v.O, nil)
				continue
			}
			w.st.InlinedWrites++
			w.ops.InlinedWrites++
		}
	case model.KDoubleArray:
		w.m.AppendFloat64Slice(o.Doubles)
		w.ops.Elems += int64(len(o.Doubles))
		w.ops.InlinedWrites++
	case model.KIntArray:
		w.m.AppendInt64Slice(o.Ints)
		w.ops.Elems += int64(len(o.Ints))
		w.ops.InlinedWrites++
	case model.KRefArray:
		w.m.AppendInt32(int32(len(o.Refs)))
		w.ops.InlinedWrites++
		for _, e := range o.Refs {
			w.ref(e, np.Elem)
		}
	}
}

type refReader struct {
	m       *wire.Message
	reg     *model.Registry
	st      stats.Snapshot
	ops     simtime.OpCount
	handles []*model.Object
	donors  map[*model.Object]bool
	budget  int64
	depth   int
}

// refRead is the reference ReadValues (fresh vals and roots slices; the
// scratch recycling of ReadValuesScratch is not part of the format).
func refRead(frame []byte, reg *model.Registry, n int, plans []*Plan, cfg Config, cached []*model.Object) ([]model.Value, []*model.Object, stats.Snapshot, simtime.OpCount, error) {
	r := &refReader{m: wire.FromBytes(frame), reg: reg, donors: map[*model.Object]bool{}}
	if n < 0 || n > MaxWireValues {
		return nil, nil, r.st, r.ops, fmt.Errorf("%w: implausible value count %d", wire.ErrMalformedFrame, n)
	}
	if cfg.Mode == ModeSite && len(plans) != n {
		return nil, nil, r.st, r.ops, fmt.Errorf("serial: site mode with %d plans for %d values", len(plans), n)
	}
	r.budget = decodeBudgetBase + decodeBudgetPerByte*int64(len(frame))
	vals := make([]model.Value, n)
	roots := make([]*model.Object, n)
	fail := func(err error) ([]model.Value, []*model.Object, stats.Snapshot, simtime.OpCount, error) {
		return nil, nil, r.st, r.ops, err
	}
	for i := 0; i < n; i++ {
		var kind model.FieldKind
		var np *NodePlan
		var old *model.Object
		if cfg.Mode == ModeClass {
			kind = model.FieldKind(r.m.ReadU8())
		} else {
			p := plans[i]
			kind, np = p.Kind, p.Root
			if cfg.Reuse && p.Reusable && i < len(cached) {
				old = cached[i]
			}
		}
		switch kind {
		case model.FInt:
			vals[i] = model.Int(r.m.ReadInt64())
		case model.FDouble:
			vals[i] = model.Double(r.m.ReadFloat64())
		case model.FBool:
			vals[i] = model.Bool(r.m.ReadBool())
		case model.FString:
			s := r.m.ReadString()
			if cfg.Mode == ModeClass {
				r.dynString(len(s))
			}
			vals[i] = model.Str(s)
		case model.FRef:
			o, err := r.ref(np, old)
			if err != nil {
				return fail(err)
			}
			vals[i] = model.Ref(o)
			roots[i] = o
		default:
			if r.m.Err() != nil {
				return fail(r.m.Err())
			}
			return fail(fmt.Errorf("%w: bad value kind %d at index %d", wire.ErrMalformedFrame, kind, i))
		}
	}
	if r.m.Err() != nil {
		return fail(r.m.Err())
	}
	return vals, roots, r.st, r.ops, nil
}

// makeSlice is the reference reader's carve: plain make, one allocation
// per array.
func makeSlice[T any](n int) []T { return make([]T, n) }

func (r *refReader) takeDonor(old *model.Object, class *model.Class) bool {
	if old == nil || old.Class != class || r.donors[old] {
		return false
	}
	r.donors[old] = true
	return true
}

func (r *refReader) register(o *model.Object) {
	if len(r.handles) >= MaxHandleEntries {
		r.m.Fail(fmt.Errorf("%w: handle table overflow", wire.ErrMalformedFrame))
		return
	}
	r.handles = append(r.handles, o)
}

func (r *refReader) allocated(o *model.Object) {
	sz := o.SizeBytes()
	if r.budget -= sz; r.budget < 0 {
		r.m.Fail(fmt.Errorf("%w: frame exceeded its decode allocation budget", wire.ErrMalformedFrame))
	}
	r.st.AllocObjects++
	r.st.AllocBytes += sz
	r.ops.Allocs++
}

func (r *refReader) reused(o *model.Object) {
	r.st.ReusedObjs++
	r.st.ReusedBytes += o.SizeBytes()
}

func (r *refReader) dynString(payload int) {
	r.ops.SerializerCalls += 2
	r.ops.TypeOps += 2
	r.ops.Allocs += 2
	r.st.AllocObjects += 2
	r.st.AllocBytes += int64(32 + payload)
}

func (r *refReader) ref(np *NodePlan, old *model.Object) (*model.Object, error) {
	if r.depth++; r.depth > MaxDecodeDepth {
		r.depth--
		return nil, fmt.Errorf("%w: reference nesting exceeds depth %d", wire.ErrMalformedFrame, MaxDecodeDepth)
	}
	defer func() { r.depth-- }()
	switch marker := r.m.ReadU8(); marker {
	case refNull:
		return nil, nil
	case refHandle:
		h := r.m.ReadInt32()
		if h >= 0 && int(h) < len(r.handles) {
			return r.handles[h], nil
		}
		if r.m.Err() == nil {
			return nil, fmt.Errorf("%w: dangling handle %d", wire.ErrMalformedFrame, h)
		}
		return nil, nil
	case refNewDynamic:
		return r.dynamic()
	case refNew:
		if np == nil {
			return nil, fmt.Errorf("%w: planned object on wire but no plan on reader", wire.ErrMalformedFrame)
		}
		return r.planned(np, old)
	default:
		if r.m.Err() != nil {
			return nil, r.m.Err()
		}
		return nil, fmt.Errorf("%w: bad reference marker %d", wire.ErrMalformedFrame, marker)
	}
}

func (r *refReader) refArrayLen() (int, error) {
	n := int(r.m.ReadInt32())
	if r.m.Err() != nil {
		return 0, r.m.Err()
	}
	if n < 0 || n > r.m.Remaining() {
		return 0, fmt.Errorf("%w: ref-array length %d with %d payload bytes remaining",
			wire.ErrMalformedFrame, n, r.m.Remaining())
	}
	return n, nil
}

func (r *refReader) dynamic() (*model.Object, error) {
	id := r.m.ReadInt32()
	if r.m.Err() != nil {
		return nil, r.m.Err()
	}
	class, ok := model.ClassByID(r.reg.Classes(), id)
	if !ok {
		return nil, fmt.Errorf("%w: unknown class ID %d", wire.ErrMalformedFrame, id)
	}
	r.ops.TypeOps++
	r.ops.SerializerCalls++
	introspect := func(n int) { r.ops.IntrospectOps += int64(n/4) + 1 }
	var o *model.Object
	switch class.Kind {
	case model.KObject:
		o = model.New(class)
		r.register(o)
		r.allocated(o)
		for i, f := range class.AllFields() {
			r.ops.IntrospectOps++
			switch f.Kind {
			case model.FInt:
				o.Fields[i] = model.Int(r.m.ReadInt64())
			case model.FDouble:
				o.Fields[i] = model.Double(r.m.ReadFloat64())
			case model.FBool:
				o.Fields[i] = model.Bool(r.m.ReadBool())
			case model.FString:
				s := r.m.ReadString()
				r.dynString(len(s))
				o.Fields[i] = model.Str(s)
			case model.FRef:
				child, err := r.ref(nil, nil)
				if err != nil {
					return nil, err
				}
				o.Fields[i] = model.Ref(child)
			}
		}
		return o, nil
	case model.KDoubleArray:
		vs, _ := r.m.ReadFloat64SliceInto(nil, makeSlice[float64])
		introspect(len(vs))
		o = &model.Object{Class: class, Doubles: vs}
		r.ops.Elems += int64(len(vs))
	case model.KIntArray:
		vs, _ := r.m.ReadInt64SliceInto(nil, makeSlice[int64])
		introspect(len(vs))
		o = &model.Object{Class: class, Ints: vs}
		r.ops.Elems += int64(len(vs))
	case model.KRefArray:
		n, err := r.refArrayLen()
		if err != nil {
			return nil, err
		}
		introspect(n)
		o = &model.Object{Class: class, Refs: make([]*model.Object, n)}
		r.register(o)
		r.allocated(o)
		for i := range o.Refs {
			if o.Refs[i], err = r.ref(nil, nil); err != nil {
				return nil, err
			}
		}
		return o, nil
	}
	r.register(o)
	r.allocated(o)
	return o, nil
}

func (r *refReader) planned(np *NodePlan, old *model.Object) (*model.Object, error) {
	donor := r.takeDonor(old, np.Class)
	// finish ends a primitive array: the donor overwritten in place, or
	// the freshly allocated o.
	finish := func(o *model.Object, inPlace bool) (*model.Object, error) {
		r.ops.InlinedWrites++
		if inPlace {
			r.reused(old)
			r.register(old)
			return old, nil
		}
		r.allocated(o)
		r.register(o)
		return o, nil
	}
	switch np.Class.Kind {
	case model.KObject:
		var o *model.Object
		if donor {
			o = old
			r.reused(o)
		} else {
			o = model.New(np.Class)
			r.allocated(o)
		}
		r.register(o)
		for _, s := range np.Steps {
			switch s.Op {
			case OpInt:
				o.Fields[s.Field] = model.Int(r.m.ReadInt64())
			case OpDouble:
				o.Fields[s.Field] = model.Double(r.m.ReadFloat64())
			case OpBool:
				o.Fields[s.Field] = model.Bool(r.m.ReadBool())
			case OpString:
				o.Fields[s.Field] = model.Str(r.m.ReadString())
			case OpRef:
				var oldChild *model.Object
				if donor {
					oldChild = o.Fields[s.Field].O
				}
				child, err := r.ref(s.Target, oldChild)
				if err != nil {
					return nil, err
				}
				o.Fields[s.Field] = model.Ref(child)
				continue
			case OpRefDynamic:
				child, err := r.ref(nil, nil)
				if err != nil {
					return nil, err
				}
				o.Fields[s.Field] = model.Ref(child)
				continue
			}
			r.ops.InlinedWrites++
		}
		return o, nil
	case model.KDoubleArray:
		var dst []float64
		if donor {
			dst = old.Doubles
		}
		vs, inPlace := r.m.ReadFloat64SliceInto(dst, makeSlice[float64])
		r.ops.Elems += int64(len(vs))
		if inPlace = inPlace && donor; inPlace { // a nil dst "fits" an empty array

			old.Doubles = vs
		}
		return finish(&model.Object{Class: np.Class, Doubles: vs}, inPlace)
	case model.KIntArray:
		var dst []int64
		if donor {
			dst = old.Ints
		}
		vs, inPlace := r.m.ReadInt64SliceInto(dst, makeSlice[int64])
		r.ops.Elems += int64(len(vs))
		if inPlace = inPlace && donor; inPlace {

			old.Ints = vs
		}
		return finish(&model.Object{Class: np.Class, Ints: vs}, inPlace)
	case model.KRefArray:
		n, err := r.refArrayLen()
		if err != nil {
			return nil, err
		}
		r.ops.InlinedWrites++
		o := old
		inPlace := donor && len(old.Refs) == n
		if inPlace {
			r.reused(o)
		} else {
			o = &model.Object{Class: np.Class, Refs: make([]*model.Object, n)}
			r.allocated(o)
		}
		r.register(o)
		for i := range o.Refs {
			var oldChild *model.Object
			if inPlace {
				oldChild = o.Refs[i]
			}
			if o.Refs[i], err = r.ref(np.Elem, oldChild); err != nil {
				return nil, err
			}
		}
		return o, nil
	}
	return nil, fmt.Errorf("serial: bad plan class kind %v", np.Class.Kind)
}
