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
	w.leaf = w.reg.MustDefine("Leaf", nil, model.Field{Name: "x", Kind: model.FInt})
	w.base = w.reg.MustDefine("Base", nil)
	w.node = w.reg.MustDefine("Node", nil, model.Field{Name: "v", Kind: model.FInt})
	w.node.Fields = append(w.node.Fields, model.Field{Name: "next", Kind: model.FRef, Class: w.node})
	w.pair = w.reg.MustDefine("Pair", nil,
		model.Field{Name: "l", Kind: model.FRef, Class: w.leaf},
		model.Field{Name: "r", Kind: model.FRef, Class: w.leaf},
	)
	w.derived1 = w.reg.MustDefine("Derived1", w.base, model.Field{Name: "data", Kind: model.FInt})
	w.derived2 = w.reg.MustDefine("Derived2", w.base,
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

// TestFingerprintDetectsLayoutChanges: every layout mutation a rolling
// upgrade can introduce — field added, removed, reordered, retyped,
// superclass changed — must flip the fingerprint.
func TestFingerprintDetectsLayoutChanges(t *testing.T) {
	base := func() *model.Registry { return model.NewRegistry() }
	orig := base().MustDefine("C", nil,
		model.Field{Name: "a", Kind: model.FInt},
		model.Field{Name: "b", Kind: model.FDouble},
	)
	variants := map[string]*model.Class{
		"field added": base().MustDefine("C", nil,
			model.Field{Name: "a", Kind: model.FInt},
			model.Field{Name: "b", Kind: model.FDouble},
			model.Field{Name: "c", Kind: model.FBool},
		),
		"field removed": base().MustDefine("C", nil,
			model.Field{Name: "a", Kind: model.FInt},
		),
		"fields reordered": base().MustDefine("C", nil,
			model.Field{Name: "b", Kind: model.FDouble},
			model.Field{Name: "a", Kind: model.FInt},
		),
		"field retyped": base().MustDefine("C", nil,
			model.Field{Name: "a", Kind: model.FDouble},
			model.Field{Name: "b", Kind: model.FDouble},
		),
		"field renamed": base().MustDefine("C", nil,
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
	sup := reg.MustDefine("S", nil, model.Field{Name: "a", Kind: model.FInt})
	sub := reg.MustDefine("C", sup, model.Field{Name: "b", Kind: model.FDouble})
	if ClassFingerprint(sub) == want {
		t.Error("superclass-split layout has the same fingerprint")
	}
}

func TestNegotiateAllAgreeIsNil(t *testing.T) {
	w := newWorld()
	fps := RegistryFingerprints(w.reg)
	if lp := Negotiate(w.reg, fps, fps); lp != nil {
		t.Fatalf("homogeneous negotiation produced %d demotions", lp.DemotedCount())
	}
}

func TestNegotiateDemotesDisagreementsOnly(t *testing.T) {
	w := newWorld()
	local := RegistryFingerprints(w.reg)
	remote := RegistryFingerprints(w.reg)
	remote["Node"] ^= 1          // skewed layout
	delete(remote, "Pair")       // peer predates the class
	remote["OnlyRemote"] = 0xabc // peer-only class: local writer can never emit it

	lp := Negotiate(w.reg, local, remote)
	if lp == nil {
		t.Fatal("disagreement negotiated to nil")
	}
	if !lp.Demoted(w.node) {
		t.Error("skewed Node not demoted")
	}
	if !lp.Demoted(w.pair) {
		t.Error("peer-unknown Pair not demoted")
	}
	if lp.Demoted(w.leaf) || lp.Demoted(w.base) {
		t.Error("agreeing class demoted")
	}
	if got := lp.DemotedCount(); got != 2 {
		t.Errorf("DemotedCount = %d, want 2", got)
	}
}

func TestDemoteAllAndNilSafety(t *testing.T) {
	w := newWorld()
	lp := DemoteAll(w.reg)
	for _, name := range w.reg.Names() {
		c, _ := w.reg.ByName(name)
		if !lp.Demoted(c) {
			t.Errorf("%s not demoted by DemoteAll", name)
		}
	}
	var nilLP *LinkPlans
	if nilLP.Demoted(w.node) || nilLP.DemotedCount() != 0 || nilLP.Fallbacks() != 0 {
		t.Error("nil LinkPlans must read as nothing-demoted")
	}
	// Classes registered after negotiation read as not-demoted.
	late := w.reg.MustDefine("Late", nil)
	sparse := Negotiate(w.reg, RegistryFingerprints(w.reg), map[string]uint64{})
	_ = sparse // every class demoted: peer advertises nothing
	lp2 := &LinkPlans{version: 1}
	lp2.demote(w.node.ID)
	if lp2.Demoted(late) {
		t.Error("post-negotiation class reads as demoted")
	}
}

// TestDemotedWriteFallsBackAndRoundTrips is the negotiation-correctness
// core: a writer holding a site plan but a demoted link must emit the
// self-describing encoding, and the frame must decode correctly under
// the same plan config on the reader.
func TestDemotedWriteFallsBackAndRoundTrips(t *testing.T) {
	w := newWorld()
	plan := w.nodeListPlan(false)
	lp := &LinkPlans{version: 1}
	lp.demote(w.node.ID)

	head := w.makeList(6)
	got, _, c := roundTrip(t, w, []model.Value{model.Ref(head)}, []*Plan{plan},
		Config{Mode: ModeSite, Link: lp}, nil)
	if !testkit.DeepEqual(head, got[0].O) {
		t.Fatal("demoted round trip mismatch")
	}
	s := c.Snapshot()
	// One fallback per planned graph root: once the root demotes to the
	// dynamic encoding, its children ride the dynamic path without
	// consulting the plan again.
	if s.PlanFallbacks != 1 {
		t.Errorf("PlanFallbacks = %d, want 1 (per demoted root)", s.PlanFallbacks)
	}
	if lp.Fallbacks() != 1 {
		t.Errorf("link Fallbacks = %d, want 1", lp.Fallbacks())
	}
	if s.SerializerCalls == 0 {
		t.Error("demoted writes should go through the dynamic serializer")
	}

	// The same write with no link table keeps the planned fast path.
	got2, _, c2 := roundTrip(t, w, []model.Value{model.Ref(head)}, []*Plan{plan},
		Config{Mode: ModeSite}, nil)
	if !testkit.DeepEqual(head, got2[0].O) {
		t.Fatal("planned round trip mismatch")
	}
	if s2 := c2.Snapshot(); s2.PlanFallbacks != 0 {
		t.Errorf("homogeneous write counted %d fallbacks", s2.PlanFallbacks)
	}
}
