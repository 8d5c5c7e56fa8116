package model

import (
	"fmt"
	"strconv"
)

// Value is a tagged runtime value: a primitive, a string, or an object
// reference (possibly null). Values are passed as RMI arguments and
// returned as RMI results.
type Value struct {
	Kind FieldKind
	I    int64
	D    float64
	S    string
	O    *Object // nil means null for Kind == FRef
}

// Int returns an int value.
func Int(i int64) Value { return Value{Kind: FInt, I: i} }

// Double returns a double value.
func Double(d float64) Value { return Value{Kind: FDouble, D: d} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	v := Value{Kind: FBool}
	if b {
		v.I = 1
	}
	return v
}

// Str returns a String value.
func Str(s string) Value { return Value{Kind: FString, S: s} }

// Ref returns an object reference value; Ref(nil) is null.
func Ref(o *Object) Value { return Value{Kind: FRef, O: o} }

// Null is the null reference.
func Null() Value { return Value{Kind: FRef} }

// AsBool interprets the value as a boolean.
func (v Value) AsBool() bool { return v.I != 0 }

// IsNull reports whether the value is a null reference.
func (v Value) IsNull() bool { return v.Kind == FRef && v.O == nil }

func (v Value) String() string {
	switch v.Kind {
	case FInt:
		return strconv.FormatInt(v.I, 10)
	case FDouble:
		return strconv.FormatFloat(v.D, 'g', -1, 64)
	case FBool:
		return strconv.FormatBool(v.I != 0)
	case FString:
		return strconv.Quote(v.S)
	case FRef:
		if v.O == nil {
			return "null"
		}
		return fmt.Sprintf("%s@%p", v.O.Class.Name, v.O)
	default:
		return "<invalid>"
	}
}

// Equal reports shallow equality: primitives by value, references by
// identity.
func (v Value) Equal(w Value) bool {
	if v.Kind != w.Kind {
		return false
	}
	switch v.Kind {
	case FInt, FBool:
		return v.I == w.I
	case FDouble:
		return v.D == w.D
	case FString:
		return v.S == w.S
	case FRef:
		return v.O == w.O
	}
	return false
}
