package testkit

import "cormi/internal/model"

// DeepClone returns a structure-preserving deep copy of the object
// graph rooted at o: shared subobjects stay shared, cycles stay cycles.
// It is the paper's local-call copy ("if the remote object is located
// on the same machine, the parameter and return value objects are
// cloned") done directly, the yardstick DeepEqual's tests hold a copy
// to; the RMI runtime clones through its serializers.
func DeepClone(o *model.Object) *model.Object {
	return deepClone(o, make(map[*model.Object]*model.Object))
}

func deepClone(o *model.Object, seen map[*model.Object]*model.Object) *model.Object {
	if o == nil {
		return nil
	}
	if c, ok := seen[o]; ok {
		return c
	}
	c := &model.Object{Class: o.Class}
	seen[o] = c
	switch o.Class.Kind {
	case model.KObject:
		c.Fields = append([]model.Value(nil), o.Fields...)
		for i := range c.Fields {
			if c.Fields[i].Kind == model.FRef {
				c.Fields[i].O = deepClone(c.Fields[i].O, seen)
			}
		}
	case model.KDoubleArray:
		c.Doubles = append([]float64(nil), o.Doubles...)
	case model.KIntArray:
		c.Ints = append([]int64(nil), o.Ints...)
	case model.KRefArray:
		c.Refs = make([]*model.Object, len(o.Refs))
		for i, e := range o.Refs {
			c.Refs[i] = deepClone(e, seen)
		}
	}
	return c
}

// CloneValue deep-clones reference values and passes primitives and
// strings through unchanged.
func CloneValue(v model.Value) model.Value {
	if v.Kind == model.FRef {
		v.O = DeepClone(v.O)
	}
	return v
}
