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
// advertise identical fingerprints — IDs are registration artifacts,
// not layout facts.
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
}

// TestFingerprintDetectsLayoutChanges: every layout change between two
// programs — field added, removed, reordered, retyped, superclass
// changed — must flip the fingerprint.
func TestFingerprintDetectsLayoutChanges(t *testing.T) {
	base := func() *model.Registry { return model.NewRegistry() }
	orig := testkit.MustDefine(base(), "C", nil,
		model.Field{Name: "a", Kind: model.FInt},
		model.Field{Name: "b", Kind: model.FDouble},
	)
	variants := map[string]*model.Class{
		"field added": testkit.MustDefine(base(), "C", nil,
			model.Field{Name: "a", Kind: model.FInt},
			model.Field{Name: "b", Kind: model.FDouble},
			model.Field{Name: "c", Kind: model.FBool},
		),
		"field removed": testkit.MustDefine(base(), "C", nil,
			model.Field{Name: "a", Kind: model.FInt},
		),
		"fields reordered": testkit.MustDefine(base(), "C", nil,
			model.Field{Name: "b", Kind: model.FDouble},
			model.Field{Name: "a", Kind: model.FInt},
		),
		"field retyped": testkit.MustDefine(base(), "C", nil,
			model.Field{Name: "a", Kind: model.FDouble},
			model.Field{Name: "b", Kind: model.FDouble},
		),
		"field renamed": testkit.MustDefine(base(), "C", nil,
			model.Field{Name: "a2", Kind: model.FInt},
			model.Field{Name: "b", Kind: model.FDouble},
		),
	}
	want := ClassFingerprint(orig)
	for name, v := range variants {
		if ClassFingerprint(v) == want {
			t.Errorf("%s: fingerprint unchanged", name)
		}
	}
	// Superclass chain matters too: the same flat fields reached through
	// a Super edge are a different planned layout origin.
	reg := base()
	sup := testkit.MustDefine(reg, "S", nil, model.Field{Name: "a", Kind: model.FInt})
	sub := testkit.MustDefine(reg, "C", sup, model.Field{Name: "b", Kind: model.FDouble})
	if ClassFingerprint(sub) == want {
		t.Error("superclass-split layout has the same fingerprint")
	}
}
