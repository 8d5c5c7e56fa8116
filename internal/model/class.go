// Package model implements the runtime object model of the RMI system:
// class descriptors, heap objects with identity semantics, and tagged
// values. It plays the role of the Java object heap in the paper's
// Manta-JavaParty runtime: serializers introspect class descriptors
// (baseline "class" mode), cycle tables key on object identity, and the
// reuse optimization overwrites objects in place.
package model

import "fmt"

// ClassKind discriminates the five layouts an Object can have.
type ClassKind uint8

const (
	// KObject is a regular object with named fields.
	KObject ClassKind = iota
	// KDoubleArray is a double[] with a []float64 payload.
	KDoubleArray
	// KIntArray is an int[] with an []int64 payload.
	KIntArray
	// KByteArray is a byte[] with a []byte payload.
	KByteArray
	// KRefArray is a T[] whose elements are object references.
	KRefArray
)

func (k ClassKind) String() string {
	switch k {
	case KObject:
		return "object"
	case KDoubleArray:
		return "double[]"
	case KIntArray:
		return "int[]"
	case KByteArray:
		return "byte[]"
	case KRefArray:
		return "ref[]"
	default:
		return fmt.Sprintf("ClassKind(%d)", uint8(k))
	}
}

// FieldKind is the static type of a field or value.
type FieldKind uint8

const (
	FInt FieldKind = iota
	FDouble
	FBool
	FString
	FRef
)

func (k FieldKind) String() string {
	switch k {
	case FInt:
		return "int"
	case FDouble:
		return "double"
	case FBool:
		return "boolean"
	case FString:
		return "String"
	case FRef:
		return "ref"
	default:
		return fmt.Sprintf("FieldKind(%d)", uint8(k))
	}
}

// Field describes one declared field of a class.
type Field struct {
	Name string
	Kind FieldKind
	// Class is the static type of the field when Kind == FRef. It may
	// be nil for untyped references (java.lang.Object-like fields).
	Class *Class
}

// Class is a runtime class descriptor. The wire protocol identifies a
// class by its ID; the baseline "class"-mode serializers send the ID for
// every transferred object, which is exactly the per-object type
// information the call-site-specific optimization removes.
type Class struct {
	ID    int32
	Name  string
	Kind  ClassKind
	Super *Class
	// Fields are the fields declared by this class itself (not the
	// inherited ones); use AllFields for the full flattened layout.
	Fields []Field
	// Elem is the element class for KRefArray classes.
	Elem *Class

	all []Field // cached flattened layout, super fields first
}

// AllFields returns the flattened field layout: inherited fields first,
// then this class's own fields, mirroring a Java object layout.
func (c *Class) AllFields() []Field {
	if c.all != nil {
		return c.all
	}
	var all []Field
	if c.Super != nil {
		all = append(all, c.Super.AllFields()...)
	}
	all = append(all, c.Fields...)
	if all == nil {
		all = []Field{}
	}
	c.all = all
	return all
}

// FieldIndex returns the index of the named field in the flattened
// layout, or -1 if the class has no such field.
func (c *Class) FieldIndex(name string) int {
	for i, f := range c.AllFields() {
		if f.Name == name {
			return i
		}
	}
	return -1
}

func (c *Class) String() string {
	if c == nil {
		return "<nil class>"
	}
	return c.Name
}
