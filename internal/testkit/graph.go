package testkit

import "cormi/internal/model"

// MustDefine is reg.Define, panicking on a duplicate registration.
func MustDefine(reg *model.Registry, name string, super *model.Class, fields ...model.Field) *model.Class {
	c, err := reg.Define(name, super, fields...)
	if err != nil {
		panic(err)
	}
	return c
}

// DeepEqual reports structural equality of two object graphs. Cyclic
// and shared structure is compared by correspondence: the i-th distinct
// object encountered on one side must pair with the i-th on the other.
func DeepEqual(a, b *model.Object) bool {
	return deepEqual(a, b, make(map[*model.Object]*model.Object))
}

func deepEqual(a, b *model.Object, pairs map[*model.Object]*model.Object) bool {
	if a == nil || b == nil {
		return a == b
	}
	if p, ok := pairs[a]; ok {
		return p == b
	}
	if a.Class.Name != b.Class.Name {
		return false
	}
	pairs[a] = b
	switch a.Class.Kind {
	case model.KObject:
		if len(a.Fields) != len(b.Fields) {
			return false
		}
		for i := range a.Fields {
			if !deepEqualValue(a.Fields[i], b.Fields[i], pairs) {
				return false
			}
		}
	case model.KDoubleArray:
		if len(a.Doubles) != len(b.Doubles) {
			return false
		}
		for i := range a.Doubles {
			if a.Doubles[i] != b.Doubles[i] {
				return false
			}
		}
	case model.KIntArray:
		if len(a.Ints) != len(b.Ints) {
			return false
		}
		for i := range a.Ints {
			if a.Ints[i] != b.Ints[i] {
				return false
			}
		}
	case model.KRefArray:
		if len(a.Refs) != len(b.Refs) {
			return false
		}
		for i := range a.Refs {
			if !deepEqual(a.Refs[i], b.Refs[i], pairs) {
				return false
			}
		}
	}
	return true
}

func deepEqualValue(a, b model.Value, pairs map[*model.Object]*model.Object) bool {
	if a.Kind != b.Kind {
		return false
	}
	if a.Kind == model.FRef {
		return deepEqual(a.O, b.O, pairs)
	}
	return a == b
}

// DeepEqualValue is DeepEqual lifted to values.
func DeepEqualValue(a, b model.Value) bool {
	return deepEqualValue(a, b, make(map[*model.Object]*model.Object))
}

// GraphSize returns the number of distinct objects reachable from o
// (including o itself), and their total SizeBytes.
func GraphSize(o *model.Object) (objects int, bytes int64) {
	seen := make(map[*model.Object]bool)
	var walk func(*model.Object)
	walk = func(x *model.Object) {
		if x == nil || seen[x] {
			return
		}
		seen[x] = true
		objects++
		bytes += x.SizeBytes()
		switch x.Class.Kind {
		case model.KObject:
			for _, f := range x.Fields {
				if f.Kind == model.FRef {
					walk(f.O)
				}
			}
		case model.KRefArray:
			for _, e := range x.Refs {
				walk(e)
			}
		}
	}
	walk(o)
	return objects, bytes
}

// HasCycle reports whether the object graph rooted at o contains a
// reference cycle (used by tests to validate the static cycle analysis:
// if the compiler says "acyclic", the runtime graph must have no
// cycle).
func HasCycle(o *model.Object) bool {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[*model.Object]int)
	var visit func(*model.Object) bool
	visit = func(x *model.Object) bool {
		if x == nil {
			return false
		}
		switch color[x] {
		case grey:
			return true
		case black:
			return false
		}
		color[x] = grey
		switch x.Class.Kind {
		case model.KObject:
			for _, f := range x.Fields {
				if f.Kind == model.FRef && visit(f.O) {
					return true
				}
			}
		case model.KRefArray:
			for _, e := range x.Refs {
				if visit(e) {
					return true
				}
			}
		}
		color[x] = black
		return false
	}
	return visit(o)
}
