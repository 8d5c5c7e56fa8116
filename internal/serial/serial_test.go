package serial

import (
	"strings"
	"testing"
	"testing/quick"

	"cormi/internal/model"
	"cormi/internal/stats"
	"cormi/internal/testkit"
	"cormi/internal/wire"
)

// testWorld builds a registry with the classes used across these
// tests: a linked-list Node, a Pair with two Leaf refs, and a Derived
// subclass of Base (the Figure 5 situation).
type testWorld struct {
	reg                              *model.Registry
	node, pair, leaf, base, derived1 *model.Class
	derived2                         *model.Class
}

func newWorld() *testWorld {
	w := &testWorld{reg: model.NewRegistry()}
	w.node = testkit.MustDefine(w.reg, "Node", nil, model.Field{Name: "v", Kind: model.FInt})
	// Self-referential field added after definition (class object
	// identity needed for the field's static type).
	w.node.Fields = append(w.node.Fields, model.Field{Name: "next", Kind: model.FRef, Class: w.node})
	w.leaf = testkit.MustDefine(w.reg, "Leaf", nil, model.Field{Name: "x", Kind: model.FInt})
	w.pair = testkit.MustDefine(w.reg, "Pair", nil,
		model.Field{Name: "l", Kind: model.FRef, Class: w.leaf},
		model.Field{Name: "r", Kind: model.FRef, Class: w.leaf},
	)
	w.base = testkit.MustDefine(w.reg, "Base", nil)
	w.derived1 = testkit.MustDefine(w.reg, "Derived1", w.base, model.Field{Name: "data", Kind: model.FInt})
	w.derived2 = testkit.MustDefine(w.reg, "Derived2", w.base,
		model.Field{Name: "p", Kind: model.FRef, Class: w.derived1})
	return w
}

// nodeListPlan builds the plan the compiler would emit for sending a
// Node linked list: recursive, needs cycle detection, reusable.
func (w *testWorld) nodeListPlan(reusable bool) *Plan {
	np := &NodePlan{Class: w.node}
	np.Steps = []Step{
		{Op: OpInt, Field: 0, FieldName: "v"},
		{Op: OpRef, Field: 1, FieldName: "next", Target: np},
	}
	return &Plan{Site: "Foo.send.1", Kind: model.FRef, Root: np, NeedCycle: true, Reusable: reusable}
}

func (w *testWorld) pairPlan() *Plan {
	leafNP := &NodePlan{Class: w.leaf, Steps: []Step{{Op: OpInt, Field: 0, FieldName: "x"}}}
	pairNP := &NodePlan{Class: w.pair, Steps: []Step{
		{Op: OpRef, Field: 0, FieldName: "l", Target: leafNP},
		{Op: OpRef, Field: 1, FieldName: "r", Target: leafNP},
	}}
	// Two fields may alias (Figure 8) — conservative plan keeps cycle
	// detection on.
	return &Plan{Site: "Foo.pair.1", Kind: model.FRef, Root: pairNP, NeedCycle: true}
}

func (w *testWorld) makeList(n int) *model.Object {
	var head *model.Object
	for i := n - 1; i >= 0; i-- {
		x := model.New(w.node)
		x.Set("v", model.Int(int64(i)))
		x.Set("next", model.Ref(head))
		head = x
	}
	return head
}

func roundTrip(t *testing.T, w *testWorld, vals []model.Value, plans []*Plan, cfg Config, cached []*model.Object) ([]model.Value, []*model.Object, *stats.Counters) {
	t.Helper()
	var c stats.Counters
	m := wire.NewMessage(0)
	if _, err := WriteValues(m, vals, plans, cfg, &c); err != nil {
		t.Fatalf("WriteValues: %v", err)
	}
	got, roots, _, err := ReadValuesScratch(wire.FromBytes(m.Bytes()), w.reg, len(vals), plans, cfg, cached, nil, &c)
	if err != nil {
		t.Fatalf("ReadValues: %v", err)
	}
	return got, roots, &c
}

func TestPrimitiveRoundTripBothModes(t *testing.T) {
	w := newWorld()
	vals := []model.Value{model.Int(-7), model.Double(2.5), model.Bool(true), model.Str("abc")}
	for _, cfg := range []Config{{Mode: ModeClass}, {Mode: ModeSite}} {
		plans := []*Plan{
			PrimitivePlan("s", model.FInt), PrimitivePlan("s", model.FDouble),
			PrimitivePlan("s", model.FBool), PrimitivePlan("s", model.FString),
		}
		got, _, _ := roundTrip(t, w, vals, plans, cfg, nil)
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("mode %v: val %d = %v, want %v", cfg.Mode, i, got[i], vals[i])
			}
		}
	}
}

func TestDynamicObjectGraphRoundTrip(t *testing.T) {
	w := newWorld()
	head := w.makeList(10)
	got, _, c := roundTrip(t, w, []model.Value{model.Ref(head)}, nil, Config{Mode: ModeClass}, nil)
	if !testkit.DeepEqual(head, got[0].O) {
		t.Fatal("list round trip mismatch")
	}
	if got[0].O == head {
		t.Fatal("deserialization aliased the source object")
	}
	s := c.Snapshot()
	if s.SerializerCalls != 10 {
		t.Fatalf("SerializerCalls = %d, want 10 (one per node)", s.SerializerCalls)
	}
	if s.TypeBytes < 40 {
		t.Fatalf("TypeBytes = %d, want >= 40 (class ID per node)", s.TypeBytes)
	}
	if s.CycleTables != 1 || s.CycleLookups != 10 {
		t.Fatalf("cycle stats = %d tables %d lookups", s.CycleTables, s.CycleLookups)
	}
	if s.AllocObjects != 10 {
		t.Fatalf("AllocObjects = %d", s.AllocObjects)
	}
}

func TestDynamicSharingAndCycles(t *testing.T) {
	w := newWorld()
	// Diamond sharing.
	shared := model.New(w.leaf)
	shared.Set("x", model.Int(5))
	p := model.New(w.pair)
	p.Set("l", model.Ref(shared))
	p.Set("r", model.Ref(shared))
	got, _, _ := roundTrip(t, w, []model.Value{model.Ref(p)}, nil, Config{Mode: ModeClass}, nil)
	gp := got[0].O
	if gp.GetRef("l") != gp.GetRef("r") {
		t.Fatal("sharing lost over the wire")
	}

	// True cycle.
	a := model.New(w.node)
	b := model.New(w.node)
	a.Set("next", model.Ref(b))
	b.Set("next", model.Ref(a))
	got, _, _ = roundTrip(t, w, []model.Value{model.Ref(a)}, nil, Config{Mode: ModeClass}, nil)
	ga := got[0].O
	if ga.GetRef("next").GetRef("next") != ga {
		t.Fatal("cycle lost over the wire")
	}
}

func TestAliasingAcrossArguments(t *testing.T) {
	// Figure 8: the same object passed twice must arrive as one object.
	w := newWorld()
	b := model.New(w.leaf)
	b.Set("x", model.Int(9))
	got, _, _ := roundTrip(t, w, []model.Value{model.Ref(b), model.Ref(b)}, nil, Config{Mode: ModeClass}, nil)
	if got[0].O != got[1].O {
		t.Fatal("cross-argument aliasing lost")
	}
}

func TestSiteModeListRoundTripAndSavings(t *testing.T) {
	w := newWorld()
	head := w.makeList(100)
	plan := w.nodeListPlan(false)
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}

	var cClass, cSite stats.Counters
	mClass := wire.NewMessage(0)
	if _, err := WriteValues(mClass, []model.Value{model.Ref(head)}, nil, Config{Mode: ModeClass}, &cClass); err != nil {
		t.Fatal(err)
	}
	mSite := wire.NewMessage(0)
	if _, err := WriteValues(mSite, []model.Value{model.Ref(head)}, []*Plan{plan}, Config{Mode: ModeSite}, &cSite); err != nil {
		t.Fatal(err)
	}

	if mSite.Len() >= mClass.Len() {
		t.Fatalf("site message (%d B) not smaller than class message (%d B)", mSite.Len(), mClass.Len())
	}
	if s := cSite.Snapshot(); s.SerializerCalls != 0 || s.TypeBytes != 0 {
		t.Fatalf("site mode leaked dynamic work: %+v", s)
	}
	if s := cClass.Snapshot(); s.SerializerCalls != 100 {
		t.Fatalf("class mode SerializerCalls = %d", s.SerializerCalls)
	}

	got, _, _, err := ReadValuesScratch(wire.FromBytes(mSite.Bytes()), w.reg, 1, []*Plan{plan}, Config{Mode: ModeSite}, nil, nil, &cSite)
	if err != nil {
		t.Fatal(err)
	}
	if !testkit.DeepEqual(head, got[0].O) {
		t.Fatal("site mode list round trip mismatch")
	}
}

func TestSiteModeCyclicListStillWorks(t *testing.T) {
	w := newWorld()
	head := w.makeList(5)
	// Close the list into a ring.
	tail := head
	for tail.GetRef("next") != nil {
		tail = tail.GetRef("next")
	}
	tail.Set("next", model.Ref(head))
	plan := w.nodeListPlan(false)
	got, _, _ := roundTrip(t, w, []model.Value{model.Ref(head)}, []*Plan{plan}, Config{Mode: ModeSite}, nil)
	if !testkit.DeepEqual(head, got[0].O) {
		t.Fatal("ring round trip mismatch")
	}
	if !testkit.HasCycle(got[0].O) {
		t.Fatal("ring arrived acyclic")
	}
}

func TestCycleEliminationSkipsTable(t *testing.T) {
	w := newWorld()
	leafNP := &NodePlan{Class: w.leaf, Steps: []Step{{Op: OpInt, Field: 0, FieldName: "x"}}}
	plan := &Plan{Site: "s", Kind: model.FRef, Root: leafNP, NeedCycle: false}
	o := model.New(w.leaf)

	// site without cycle elimination: table created.
	_, _, c := roundTrip(t, w, []model.Value{model.Ref(o)}, []*Plan{plan}, Config{Mode: ModeSite}, nil)
	if c.Snapshot().CycleTables != 1 {
		t.Fatalf("expected table without CycleElim, got %d", c.Snapshot().CycleTables)
	}
	// site+cycle: no table, no lookups.
	_, _, c = roundTrip(t, w, []model.Value{model.Ref(o)}, []*Plan{plan}, Config{Mode: ModeSite, CycleElim: true}, nil)
	if s := c.Snapshot(); s.CycleTables != 0 || s.CycleLookups != 0 {
		t.Fatalf("cycle work despite elimination: %+v", s)
	}
	// A plan that needs cycles keeps the table even under CycleElim.
	plan.NeedCycle = true
	_, _, c = roundTrip(t, w, []model.Value{model.Ref(o)}, []*Plan{plan}, Config{Mode: ModeSite, CycleElim: true}, nil)
	if c.Snapshot().CycleTables != 1 {
		t.Fatal("NeedCycle plan lost its table")
	}
}

func TestReuseOverwritesInPlace(t *testing.T) {
	w := newWorld()
	plan := w.nodeListPlan(true)
	cfg := Config{Mode: ModeSite, CycleElim: true, Reuse: true}
	head := w.makeList(20)

	// First call: everything allocated.
	vals, roots, c := roundTrip(t, w, []model.Value{model.Ref(head)}, []*Plan{plan}, cfg, nil)
	if s := c.Snapshot(); s.AllocObjects != 20 || s.ReusedObjs != 0 {
		t.Fatalf("first call: %+v", s)
	}
	first := vals[0].O

	// Second call with the first call's roots cached: zero allocations.
	head2 := w.makeList(20)
	head2.Set("v", model.Int(999))
	vals2, _, c2 := roundTrip(t, w, []model.Value{model.Ref(head2)}, []*Plan{plan}, cfg, roots)
	if s := c2.Snapshot(); s.AllocObjects != 0 || s.ReusedObjs != 20 {
		t.Fatalf("second call: %+v", s)
	}
	if vals2[0].O != first {
		t.Fatal("root object not reused in place")
	}
	if !testkit.DeepEqual(head2, vals2[0].O) {
		t.Fatal("reused graph carries wrong data")
	}
}

func TestReuseLengthMismatchReallocates(t *testing.T) {
	w := newWorld()
	plan := w.nodeListPlan(true)
	cfg := Config{Mode: ModeSite, CycleElim: true, Reuse: true}
	_, roots, _ := roundTrip(t, w, []model.Value{model.Ref(w.makeList(5))}, []*Plan{plan}, cfg, nil)

	// A longer list: the shared prefix is reused, the tail allocated.
	vals, _, c := roundTrip(t, w, []model.Value{model.Ref(w.makeList(8))}, []*Plan{plan}, cfg, roots)
	s := c.Snapshot()
	if s.ReusedObjs != 5 || s.AllocObjects != 3 {
		t.Fatalf("partial reuse: reused=%d alloc=%d", s.ReusedObjs, s.AllocObjects)
	}
	if n, _ := testkit.GraphSize(vals[0].O); n != 8 {
		t.Fatalf("result length %d", n)
	}
}

func TestReuseArrayResizePath(t *testing.T) {
	// Figure 13's "if an array size is mismatched ... a new array of
	// the correct size is allocated".
	w := newWorld()
	da := w.reg.DoubleArray()
	plan := &Plan{Site: "s", Kind: model.FRef, Root: &NodePlan{Class: da}, Reusable: true}
	cfg := Config{Mode: ModeSite, CycleElim: true, Reuse: true}

	a := model.NewArray(da, 16)
	for i := range a.Doubles {
		a.Doubles[i] = float64(i)
	}
	vals, roots, _ := roundTrip(t, w, []model.Value{model.Ref(a)}, []*Plan{plan}, cfg, nil)
	firstData := &vals[0].O.Doubles[0]

	// Same size: reused, same backing store.
	vals2, roots2, c := roundTrip(t, w, []model.Value{model.Ref(a)}, []*Plan{plan}, cfg, roots)
	if c.Snapshot().ReusedObjs != 1 || &vals2[0].O.Doubles[0] != firstData {
		t.Fatal("same-size array not reused")
	}

	// Different size: fresh allocation.
	b := model.NewArray(da, 32)
	vals3, _, c3 := roundTrip(t, w, []model.Value{model.Ref(b)}, []*Plan{plan}, cfg, roots2)
	if c3.Snapshot().ReusedObjs != 0 || c3.Snapshot().AllocObjects != 1 {
		t.Fatalf("mismatched array reuse stats: %+v", c3.Snapshot())
	}
	if len(vals3[0].O.Doubles) != 32 {
		t.Fatal("wrong resized length")
	}
}

func TestPolymorphicFallback(t *testing.T) {
	// Plan predicts Derived1 but a Derived2 arrives: the writer must
	// fall back to the dynamic path and the reader must still decode.
	w := newWorld()
	d1NP := &NodePlan{Class: w.derived1, Steps: []Step{{Op: OpInt, Field: 0, FieldName: "data"}}}
	plan := &Plan{Site: "s", Kind: model.FRef, Root: d1NP, NeedCycle: false}

	d2 := model.New(w.derived2)
	inner := model.New(w.derived1)
	inner.Set("data", model.Int(3))
	d2.Set("p", model.Ref(inner))

	got, _, c := roundTrip(t, w, []model.Value{model.Ref(d2)}, []*Plan{plan}, Config{Mode: ModeSite, CycleElim: true}, nil)
	if got[0].O.Class != w.derived2 || got[0].O.GetRef("p").Get("data").I != 3 {
		t.Fatalf("fallback decode wrong: %v", got[0].O)
	}
	if c.Snapshot().SerializerCalls == 0 {
		t.Fatal("fallback should count dynamic serializer calls")
	}
}

func TestNullAndEmpty(t *testing.T) {
	w := newWorld()
	plan := w.nodeListPlan(false)
	got, _, _ := roundTrip(t, w, []model.Value{model.Null()}, []*Plan{plan}, Config{Mode: ModeSite}, nil)
	if !got[0].IsNull() {
		t.Fatal("null lost")
	}
	got, _, _ = roundTrip(t, w, []model.Value{model.Null()}, nil, Config{Mode: ModeClass}, nil)
	if !got[0].IsNull() {
		t.Fatal("null lost in class mode")
	}
	// Zero values: a message with no values at all.
	got, _, _ = roundTrip(t, w, nil, nil, Config{Mode: ModeClass}, nil)
	if len(got) != 0 {
		t.Fatal("empty message")
	}
}

func TestErrorsSurface(t *testing.T) {
	w := newWorld()
	var c stats.Counters

	// Truncated message.
	m := wire.NewMessage(0)
	if _, err := WriteValues(m, []model.Value{model.Ref(w.makeList(3))}, nil, Config{Mode: ModeClass}, &c); err != nil {
		t.Fatal(err)
	}
	trunc := m.Bytes()[:m.Len()-4]
	if _, _, _, err := ReadValuesScratch(wire.FromBytes(trunc), w.reg, 1, nil, Config{Mode: ModeClass}, nil, nil, &c); err == nil {
		t.Fatal("truncated message accepted")
	}

	// Unknown class ID.
	other := model.NewRegistry()
	if _, _, _, err := ReadValuesScratch(wire.FromBytes(m.Bytes()), other, 1, nil, Config{Mode: ModeClass}, nil, nil, &c); err == nil {
		t.Fatal("unknown class accepted")
	}

	// Site mode plan count mismatch.
	if _, err := WriteValues(wire.NewMessage(0), []model.Value{model.Int(1)}, nil, Config{Mode: ModeSite}, &c); err == nil {
		t.Fatal("plan count mismatch accepted on write")
	}
	if _, _, _, err := ReadValuesScratch(wire.FromBytes(nil), w.reg, 2, []*Plan{PrimitivePlan("s", model.FInt)}, Config{Mode: ModeSite}, nil, nil, &c); err == nil {
		t.Fatal("plan count mismatch accepted on read")
	}

	// Planned object on the wire but no plan on the reader.
	mm := wire.NewMessage(0)
	plan := w.nodeListPlan(false)
	if _, err := WriteValues(mm, []model.Value{model.Ref(w.makeList(1))}, []*Plan{plan}, Config{Mode: ModeSite}, &c); err != nil {
		t.Fatal(err)
	}
	badPlan := &Plan{Site: "s", Kind: model.FRef, Root: nil, NeedCycle: true}
	if _, _, _, err := ReadValuesScratch(wire.FromBytes(mm.Bytes()), w.reg, 1, []*Plan{badPlan}, Config{Mode: ModeSite}, nil, nil, &c); err == nil {
		t.Fatal("planned wire object without reader plan accepted")
	}
}

func TestPlanValidate(t *testing.T) {
	w := newWorld()
	good := w.nodeListPlan(false)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Plan{Site: "s", Kind: model.FRef, Root: &NodePlan{Class: w.node, Steps: []Step{{Op: OpInt, Field: 9}}}}
	if bad.Validate() == nil {
		t.Fatal("out-of-range step accepted")
	}
	bad2 := &Plan{Site: "s", Kind: model.FRef, Root: &NodePlan{Class: w.node, Steps: []Step{{Op: OpDouble, Field: 0}}}}
	if bad2.Validate() == nil {
		t.Fatal("kind-mismatched step accepted")
	}
	bad3 := &Plan{Site: "s", Kind: model.FRef, Root: &NodePlan{Class: w.node, Steps: []Step{{Op: OpRef, Field: 1}}}}
	if bad3.Validate() == nil {
		t.Fatal("OpRef without target accepted")
	}
	prim := &Plan{Site: "s", Kind: model.FInt, Root: &NodePlan{Class: w.node}}
	if prim.Validate() == nil {
		t.Fatal("primitive plan with root accepted")
	}
}

func TestPseudocodeRendering(t *testing.T) {
	w := newWorld()
	plan := w.nodeListPlan(false)
	code := plan.Pseudocode()
	for _, want := range []string{"marshaler_Foo.send.1", "CycleTable", "append_int", "recursive structure"} {
		if !strings.Contains(code, want) {
			t.Fatalf("pseudocode missing %q:\n%s", want, code)
		}
	}
	// Array plan: bulk copy phrasing of Figure 13.
	ap := &Plan{Site: "ArrayBench.send.1", Kind: model.FRef,
		Root: &NodePlan{Class: w.reg.ArrayOf(w.reg.DoubleArray()),
			Elem: &NodePlan{Class: w.reg.DoubleArray()}}}
	code = ap.Pseudocode()
	if !strings.Contains(code, "append_double_array") || strings.Contains(code, "CycleTable") {
		t.Fatalf("array pseudocode wrong:\n%s", code)
	}
}

func TestRandomListsRoundTripProperty(t *testing.T) {
	w := newWorld()
	plan := w.nodeListPlan(false)
	f := func(vals []int16, ring bool) bool {
		var head *model.Object
		for _, v := range vals {
			x := model.New(w.node)
			x.Set("v", model.Int(int64(v)))
			x.Set("next", model.Ref(head))
			head = x
		}
		if ring && head != nil {
			tail := head
			for tail.GetRef("next") != nil {
				tail = tail.GetRef("next")
			}
			tail.Set("next", model.Ref(head))
		}
		for _, cfg := range []Config{{Mode: ModeClass}, {Mode: ModeSite}, {Mode: ModeSite, CycleElim: true}} {
			var plans []*Plan
			if cfg.Mode == ModeSite {
				plans = []*Plan{plan}
			}
			var c stats.Counters
			m := wire.NewMessage(0)
			if _, err := WriteValues(m, []model.Value{model.Ref(head)}, plans, cfg, &c); err != nil {
				return false
			}
			got, _, _, err := ReadValuesScratch(wire.FromBytes(m.Bytes()), w.reg, 1, plans, cfg, nil, nil, &c)
			if err != nil {
				return false
			}
			if !testkit.DeepEqual(head, got[0].O) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestReuseCacheGuard(t *testing.T) {
	var rc ReuseCache
	if s, v := rc.Take(); s != nil || v != nil {
		t.Fatal("fresh cache not empty")
	}
	w := newWorld()
	roots := []*model.Object{model.New(w.leaf)}
	vals := make([]model.Value, 1)
	rc.Put(roots, vals)
	got, gotVals := rc.Take()
	if len(got) != 1 || got[0] != roots[0] || len(gotVals) != 1 {
		t.Fatal("Put/Take round trip")
	}
	// Figure 13 guard: a second concurrent Take sees nil.
	if s, v := rc.Take(); s != nil || v != nil {
		t.Fatal("double Take should see nil")
	}
	// A nil argument must not clobber a slot another holder returned.
	rc.Put(roots, nil)
	rc.Put(nil, vals)
	got, gotVals = rc.Take()
	if len(got) != 1 || len(gotVals) != 1 {
		t.Fatal("nil Put argument clobbered the other slot")
	}
}

// TestRootsOnFirstReference pins the roots contract of ReadValuesScratch:
// roots is made at the first reference read, so a message without one
// reads back nil roots, a mixed message one slot per value with the
// primitive slots nil, and a cached slice of the right length is
// recycled as roots itself whatever the message holds.
func TestRootsOnFirstReference(t *testing.T) {
	w := newWorld()
	intPlan := PrimitivePlan("s", model.FInt)
	listPlan := w.nodeListPlan(true)
	cfg := Config{Mode: ModeSite, CycleElim: true, Reuse: true}

	_, roots, _ := roundTrip(t, w, []model.Value{model.Int(1), model.Int(2)}, []*Plan{intPlan, intPlan}, cfg, nil)
	if roots != nil {
		t.Errorf("all-primitive message: roots %v, want nil", roots)
	}

	vals, roots, _ := roundTrip(t, w, []model.Value{model.Int(1), model.Ref(w.makeList(3))}, []*Plan{intPlan, listPlan}, cfg, nil)
	if len(roots) != 2 || roots[0] != nil || roots[1] != vals[1].O {
		t.Errorf("mixed message: roots %v, want [nil, the list]", roots)
	}

	cached := roots
	vals, roots, _ = roundTrip(t, w, []model.Value{model.Int(4), model.Ref(w.makeList(3))}, []*Plan{intPlan, listPlan}, cfg, cached)
	if &roots[0] != &cached[0] || roots[0] != nil || roots[1] != vals[1].O {
		t.Errorf("cache hit: roots %v is not the cached slice rewritten", roots)
	}
	_, roots, _ = roundTrip(t, w, []model.Value{model.Int(5), model.Int(6)}, []*Plan{intPlan, intPlan}, cfg, cached)
	if &roots[0] != &cached[0] || roots[0] != nil || roots[1] != nil {
		t.Errorf("cache hit, no reference: roots %v is not the cached slice cleared", roots)
	}

	// Putting the nil roots of a reference-free message back leaves
	// the slot as it was.
	var rc ReuseCache
	rc.Put(cached, nil)
	_, none, _ := roundTrip(t, w, []model.Value{model.Int(1), model.Int(2)}, []*Plan{intPlan, intPlan}, cfg, nil)
	rc.Put(none, nil)
	if got, _ := rc.Take(); &got[0] != &cached[0] {
		t.Error("Put(nil roots) replaced the cached slot")
	}
}
