package model

// DeepClone returns a structure-preserving deep copy of the object
// graph rooted at o: shared subobjects stay shared, cycles stay cycles.
// It is the paper's local-call copy ("if the remote object is located
// on the same machine, the parameter and return value objects are
// cloned") done directly; the RMI runtime clones through its
// serializers instead, and the chain workloads compare against this.
func DeepClone(o *Object) *Object {
	if o == nil {
		return nil
	}
	return deepClone(o, make(map[*Object]*Object))
}

func deepClone(o *Object, seen map[*Object]*Object) *Object {
	if o == nil {
		return nil
	}
	if c, ok := seen[o]; ok {
		return c
	}
	var c *Object
	switch o.Class.Kind {
	case KObject:
		c = &Object{Class: o.Class, Fields: make([]Value, len(o.Fields))}
		seen[o] = c
		copy(c.Fields, o.Fields)
		for i := range c.Fields {
			if c.Fields[i].Kind == FRef && c.Fields[i].O != nil {
				c.Fields[i].O = deepClone(c.Fields[i].O, seen)
			}
		}
	case KDoubleArray:
		c = &Object{Class: o.Class, Doubles: append([]float64(nil), o.Doubles...)}
		seen[o] = c
	case KIntArray:
		c = &Object{Class: o.Class, Ints: append([]int64(nil), o.Ints...)}
		seen[o] = c
	case KByteArray:
		c = &Object{Class: o.Class, Bytes: append([]byte(nil), o.Bytes...)}
		seen[o] = c
	case KRefArray:
		c = &Object{Class: o.Class, Refs: make([]*Object, len(o.Refs))}
		seen[o] = c
		for i, e := range o.Refs {
			c.Refs[i] = deepClone(e, seen)
		}
	}
	return c
}

// CloneValue deep-clones reference values and passes primitives and
// strings through unchanged.
func CloneValue(v Value) Value {
	if v.Kind == FRef && v.O != nil {
		v.O = DeepClone(v.O)
	}
	return v
}
