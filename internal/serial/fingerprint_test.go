package serial

import (
	"testing"

	"cormi/internal/model"
	"cormi/internal/testkit"
)

// buildWorldReordered defines the same classes as newWorld in a
// different registration order, so class IDs differ but layouts agree.
func buildWorldReordered() *testWorld {
	w := &testWorld{reg: model.NewRegistry()}
	w.leaf = testkit.MustDefine(w.reg, "Leaf", nil, model.Field{Name: "x", Kind: model.FInt})
	w.base = testkit.MustDefine(w.reg, "Base", nil)
	w.node = testkit.MustDefine(w.reg, "Node", nil, model.Field{Name: "v", Kind: model.FInt})
	w.node.Fields = append(w.node.Fields, model.Field{Name: "next", Kind: model.FRef, Class: w.node})
	w.pair = testkit.MustDefine(w.reg, "Pair", nil,
		model.Field{Name: "l", Kind: model.FRef, Class: w.leaf},
		model.Field{Name: "r", Kind: model.FRef, Class: w.leaf},
	)
	w.derived1 = testkit.MustDefine(w.reg, "Derived1", w.base, model.Field{Name: "data", Kind: model.FInt})
	w.derived2 = testkit.MustDefine(w.reg, "Derived2", w.base,
		model.Field{Name: "p", Kind: model.FRef, Class: w.derived1})
	return w
}

// TestFingerprintRegistrationOrderIndependent: two nodes that define
// the same class graph in different orders (so IDs differ) must
// advertise identical fingerprints and the same registry digest — IDs
// are registration artifacts, not layout facts.
func TestFingerprintRegistrationOrderIndependent(t *testing.T) {
	a, b := newWorld(), buildWorldReordered()
	fa, fb := RegistryFingerprints(a.reg), RegistryFingerprints(b.reg)
	for name, fp := range fa {
		if got, ok := fb[name]; !ok {
			t.Errorf("class %s missing from reordered registry", name)
		} else if got != fp {
			t.Errorf("class %s: fingerprint %016x != %016x across registration orders", name, fp, got)
		}
	}
	if da, db := RegistryDigest(a.reg), RegistryDigest(b.reg); da != db {
		t.Errorf("registry digest %016x != %016x across registration orders", da, db)
	}
}

// TestFingerprintDetectsLayoutChanges: every layout change between two
// programs — field added, removed, reordered, retyped, renamed,
// superclass changed, class renamed — must flip the fingerprint of the
// class and the digest of its registry.
func TestFingerprintDetectsLayoutChanges(t *testing.T) {
	define := func(fields ...model.Field) (*model.Registry, *model.Class) {
		reg := model.NewRegistry()
		return reg, testkit.MustDefine(reg, "C", nil, fields...)
	}
	origReg, orig := define(
		model.Field{Name: "a", Kind: model.FInt},
		model.Field{Name: "b", Kind: model.FDouble},
	)
	type variant struct {
		reg *model.Registry
		c   *model.Class
	}
	pair := func(reg *model.Registry, c *model.Class) variant { return variant{reg, c} }
	variants := map[string]variant{
		"field added": pair(define(
			model.Field{Name: "a", Kind: model.FInt},
			model.Field{Name: "b", Kind: model.FDouble},
			model.Field{Name: "c", Kind: model.FBool},
		)),
		"field removed": pair(define(
			model.Field{Name: "a", Kind: model.FInt},
		)),
		"fields reordered": pair(define(
			model.Field{Name: "b", Kind: model.FDouble},
			model.Field{Name: "a", Kind: model.FInt},
		)),
		"field retyped": pair(define(
			model.Field{Name: "a", Kind: model.FDouble},
			model.Field{Name: "b", Kind: model.FDouble},
		)),
		"field renamed": pair(define(
			model.Field{Name: "a2", Kind: model.FInt},
			model.Field{Name: "b", Kind: model.FDouble},
		)),
	}
	// Superclass chain matters too: the same flat fields reached through
	// a Super edge are a different planned layout origin.
	reg := model.NewRegistry()
	sup := testkit.MustDefine(reg, "S", nil, model.Field{Name: "a", Kind: model.FInt})
	variants["superclass split"] = variant{reg, testkit.MustDefine(reg, "C", sup, model.Field{Name: "b", Kind: model.FDouble})}
	// A renamed class changes the digest even where its own
	// fingerprint is not compared (it has no counterpart by name).
	reg = model.NewRegistry()
	renamed := testkit.MustDefine(reg, "D", nil,
		model.Field{Name: "a", Kind: model.FInt},
		model.Field{Name: "b", Kind: model.FDouble},
	)
	variants["class renamed"] = variant{reg, renamed}

	want, wantDigest := ClassFingerprint(orig), RegistryDigest(origReg)
	for name, v := range variants {
		if ClassFingerprint(v.c) == want {
			t.Errorf("%s: fingerprint unchanged", name)
		}
		if RegistryDigest(v.reg) == wantDigest {
			t.Errorf("%s: registry digest unchanged", name)
		}
	}
	// A class added to an otherwise identical program changes the
	// digest too.
	testkit.MustDefine(origReg, "E", nil)
	if RegistryDigest(origReg) == wantDigest {
		t.Error("class added: registry digest unchanged")
	}
}
