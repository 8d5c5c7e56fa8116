package model

import (
	"fmt"
	"strings"
)

// Object is a heap object with identity semantics (compared by
// pointer). Exactly one payload is populated, selected by Class.Kind.
type Object struct {
	Class   *Class
	Fields  []Value   // KObject: one slot per flattened field
	Doubles []float64 // KDoubleArray
	Ints    []int64   // KIntArray
	Refs    []*Object // KRefArray
}

// New allocates a zeroed instance of a KObject class.
func New(c *Class) *Object {
	if c.Kind != KObject {
		panic("model.New: " + c.Name + " is not an object class")
	}
	all := c.AllFields()
	fields := make([]Value, len(all))
	for i, f := range all {
		fields[i].Kind = f.Kind
	}
	return &Object{Class: c, Fields: fields}
}

// NewArray allocates an array object of length n for an array class.
func NewArray(c *Class, n int) *Object {
	o := &Object{Class: c}
	switch c.Kind {
	case KDoubleArray:
		o.Doubles = make([]float64, n)
	case KIntArray:
		o.Ints = make([]int64, n)
	case KRefArray:
		o.Refs = make([]*Object, n)
	default:
		panic("model.NewArray: " + c.Name + " is not an array class")
	}
	return o
}

// Len returns the array length, or the field count for plain objects.
func (o *Object) Len() int {
	switch o.Class.Kind {
	case KDoubleArray:
		return len(o.Doubles)
	case KIntArray:
		return len(o.Ints)
	case KRefArray:
		return len(o.Refs)
	default:
		return len(o.Fields)
	}
}

// SizeBytes estimates the heap footprint of this single object (header
// plus payload), used for the "new (MBytes)" statistics of Tables 4, 6
// and 8.
func (o *Object) SizeBytes() int64 {
	const header = 16
	switch o.Class.Kind {
	case KDoubleArray:
		return header + int64(8*len(o.Doubles))
	case KIntArray:
		return header + int64(8*len(o.Ints))
	case KRefArray:
		return header + int64(8*len(o.Refs))
	default:
		n := header + int64(8*len(o.Fields))
		for i := range o.Fields {
			if o.Fields[i].Kind == FString {
				n += int64(len(o.Fields[i].S))
			}
		}
		return n
	}
}

// Get returns the value of the named field.
func (o *Object) Get(name string) Value {
	i := o.Class.FieldIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("model: class %s has no field %q", o.Class.Name, name))
	}
	return o.Fields[i]
}

// Set assigns the named field.
func (o *Object) Set(name string, v Value) {
	i := o.Class.FieldIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("model: class %s has no field %q", o.Class.Name, name))
	}
	o.Fields[i] = v
}

// GetRef returns the named reference field's target (may be nil).
func (o *Object) GetRef(name string) *Object { return o.Get(name).O }

// String renders a shallow, single-line description of the object.
func (o *Object) String() string {
	if o == nil {
		return "null"
	}
	var b strings.Builder
	b.WriteString(o.Class.Name)
	switch o.Class.Kind {
	case KObject:
		b.WriteByte('{')
		for i, f := range o.Class.AllFields() {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s=%s", f.Name, o.Fields[i])
		}
		b.WriteByte('}')
	default:
		fmt.Fprintf(&b, "[len=%d]", o.Len())
	}
	return b.String()
}
