package serial

import (
	"cormi/internal/model"
)

// Plan fingerprints.
//
// A compiled site plan is deterministic in the class layout it was
// generated from: the plan walker emits one step per flattened field,
// in declaration order, typed by the field's static kind (plan.go).
// Two nodes therefore decode each other's planned frames correctly if
// and only if they agree on that layout for every class that can cross
// the link. ClassFingerprint hashes exactly the layout facts plan
// generation consumes — kind, name, superclass chain, flattened field
// names/kinds/static ref targets, array element class — so equal
// fingerprints imply equal plans and unequal fingerprints flag every
// layout change (field added, removed, reordered, retyped) that would
// make a compiled plan mis-decode.
//
// The hash is FNV-1a over a tagged byte walk. It is not
// collision-resistant against an adversary, but an adversary who
// forges a fingerprint can at worst get its link refused or feed the
// hardened decoder malformed frames — both safe outcomes by
// construction.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime64
}

func fnvStr(h uint64, s string) uint64 {
	// Length-prefix the string so "ab"+"c" and "a"+"bc" hash apart.
	h = fnvByte(h, byte(len(s)))
	h = fnvByte(h, byte(len(s)>>8))
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// ClassFingerprint hashes the layout facts a compiled plan for c
// depends on. Identical class graphs yield identical fingerprints on
// every node regardless of registration order (IDs are deliberately
// excluded — they are assigned in registration order and carry no
// layout information).
func ClassFingerprint(c *model.Class) uint64 {
	h := uint64(fnvOffset64)
	h = fnvByte(h, byte(c.Kind))
	h = fnvStr(h, c.Name)
	for s := c.Super; s != nil; s = s.Super {
		h = fnvByte(h, 'S')
		h = fnvStr(h, s.Name)
	}
	for _, f := range c.AllFields() {
		h = fnvByte(h, 'F')
		h = fnvStr(h, f.Name)
		h = fnvByte(h, byte(f.Kind))
		if f.Kind == model.FRef && f.Class != nil {
			h = fnvStr(h, f.Class.Name)
		}
	}
	if c.Elem != nil {
		h = fnvByte(h, 'E')
		h = fnvStr(h, c.Elem.Name)
	}
	return h
}

// RegistryFingerprints computes the fingerprint of every class in reg,
// keyed by class name (rmic -fingerprints prints the table).
func RegistryFingerprints(reg *model.Registry) map[string]uint64 {
	fps := make(map[string]uint64)
	for _, name := range reg.Names() {
		if c, ok := reg.ByName(name); ok {
			fps[name] = ClassFingerprint(c)
		}
	}
	return fps
}

// RegistryDigest hashes the (class name, ClassFingerprint) pairs of reg,
// sorted by name, into the one digest a node states in its HELLO frame.
// Like the fingerprints it folds, it is independent of registration
// order and changes with every layout change of any class.
func RegistryDigest(reg *model.Registry) uint64 {
	h := uint64(fnvOffset64)
	for _, name := range reg.Names() {
		c, ok := reg.ByName(name)
		if !ok {
			continue
		}
		h = fnvStr(h, name)
		fp := ClassFingerprint(c)
		for shift := 0; shift < 64; shift += 8 {
			h = fnvByte(h, byte(fp>>shift))
		}
	}
	return h
}
