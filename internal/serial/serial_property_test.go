package serial

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cormi/internal/model"
	"cormi/internal/stats"
	"cormi/internal/testkit"
	"cormi/internal/wire"
)

// richWorld adds a class covering every field kind plus primitive and
// reference arrays.
type richWorld struct {
	reg  *model.Registry
	g    *model.Class
	ia   *model.Class
	gArr *model.Class
}

func newRichWorld() *richWorld {
	reg := model.NewRegistry()
	g := testkit.MustDefine(reg, "G", nil,
		model.Field{Name: "i", Kind: model.FInt},
		model.Field{Name: "d", Kind: model.FDouble},
		model.Field{Name: "b", Kind: model.FBool},
		model.Field{Name: "s", Kind: model.FString},
	)
	g.Fields = append(g.Fields,
		model.Field{Name: "l", Kind: model.FRef, Class: g},
		model.Field{Name: "r", Kind: model.FRef, Class: g},
	)
	return &richWorld{reg: reg, g: g, ia: reg.IntArray(), gArr: reg.ArrayOf(g)}
}

func (w *richWorld) randomGraph(rng *rand.Rand, n int) *model.Object {
	if n <= 0 {
		return nil
	}
	g, _ := w.reg.ByName("G")
	nodes := make([]*model.Object, n)
	for i := range nodes {
		o := model.New(g)
		o.Set("i", model.Int(rng.Int63n(100)))
		o.Set("d", model.Double(rng.Float64()))
		o.Set("b", model.Bool(rng.Intn(2) == 0))
		o.Set("s", model.Str(string(rune('a'+rng.Intn(26)))))
		nodes[i] = o
	}
	for _, o := range nodes {
		if rng.Intn(3) != 0 {
			o.Set("l", model.Ref(nodes[rng.Intn(n)]))
		}
		if rng.Intn(3) != 0 {
			o.Set("r", model.Ref(nodes[rng.Intn(n)]))
		}
	}
	return nodes[0]
}

// TestClassModeRandomGraphRoundTrip: arbitrary graphs (sharing,
// cycles, every field kind) survive the baseline serializer.
func TestClassModeRandomGraphRoundTrip(t *testing.T) {
	w := newRichWorld()
	var c stats.Counters
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := w.randomGraph(rng, int(size%25)+1)
		m := wire.NewMessage(0)
		if _, err := WriteValues(m, []model.Value{model.Ref(g)}, nil, Config{Mode: ModeClass}, &c); err != nil {
			return false
		}
		got, _, _, err := ReadValuesScratch(wire.FromBytes(m.Bytes()), w.reg, 1, nil, Config{Mode: ModeClass}, nil, nil, &c)
		if err != nil {
			return false
		}
		return testkit.DeepEqual(g, got[0].O)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestSiteModeRandomGraphRoundTrip: the same graphs through a
// compiled-style plan (recursive, needs cycle table) — and a third
// pass re-reading into the previous roots (reuse path).
func TestSiteModeRandomGraphRoundTrip(t *testing.T) {
	w := newRichWorld()
	g, _ := w.reg.ByName("G")
	np := &NodePlan{Class: g}
	np.Steps = []Step{
		{Op: OpInt, Field: 0, FieldName: "i"},
		{Op: OpDouble, Field: 1, FieldName: "d"},
		{Op: OpBool, Field: 2, FieldName: "b"},
		{Op: OpString, Field: 3, FieldName: "s"},
		{Op: OpRef, Field: 4, FieldName: "l", Target: np},
		{Op: OpRef, Field: 5, FieldName: "r", Target: np},
	}
	plan := &Plan{Site: "q", Kind: model.FRef, Root: np, NeedCycle: true, Reusable: true}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: ModeSite, Reuse: true}
	var c stats.Counters
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		graph := w.randomGraph(rng, int(size%25)+1)
		m := wire.NewMessage(0)
		if _, err := WriteValues(m, []model.Value{model.Ref(graph)}, []*Plan{plan}, cfg, &c); err != nil {
			return false
		}
		got, roots, _, err := ReadValuesScratch(wire.FromBytes(m.Bytes()), w.reg, 1, []*Plan{plan}, cfg, nil, nil, &c)
		if err != nil || !testkit.DeepEqual(graph, got[0].O) {
			return false
		}
		// Reuse pass: a different random graph lands on the cached one.
		graph2 := w.randomGraph(rng, int(size%25)+1)
		m2 := wire.NewMessage(0)
		if _, err := WriteValues(m2, []model.Value{model.Ref(graph2)}, []*Plan{plan}, cfg, &c); err != nil {
			return false
		}
		got2, _, _, err := ReadValuesScratch(wire.FromBytes(m2.Bytes()), w.reg, 1, []*Plan{plan}, cfg, roots, nil, &c)
		if err != nil {
			return false
		}
		return testkit.DeepEqual(graph2, got2[0].O)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestPrimitiveArrayRoundTrips(t *testing.T) {
	w := newRichWorld()
	var c stats.Counters

	ia := model.NewArray(w.ia, 4)
	copy(ia.Ints, []int64{1, -2, 3, 1 << 40})
	da := model.NewArray(w.reg.DoubleArray(), 3)
	copy(da.Doubles, []float64{7, 8, 9})

	// Dynamic (class) mode.
	m := wire.NewMessage(0)
	if _, err := WriteValues(m, []model.Value{model.Ref(ia), model.Ref(da)}, nil, Config{Mode: ModeClass}, &c); err != nil {
		t.Fatal(err)
	}
	got, _, _, err := ReadValuesScratch(wire.FromBytes(m.Bytes()), w.reg, 2, nil, Config{Mode: ModeClass}, nil, nil, &c)
	if err != nil || !testkit.DeepEqual(ia, got[0].O) || !testkit.DeepEqual(da, got[1].O) {
		t.Fatalf("class-mode primitive arrays: %v", err)
	}

	// Planned with reuse: int array payload reused in place.
	planI := &Plan{Site: "pi", Kind: model.FRef, Root: &NodePlan{Class: w.ia}, Reusable: true}
	planD := &Plan{Site: "pd", Kind: model.FRef, Root: &NodePlan{Class: w.reg.DoubleArray()}, Reusable: true}
	cfg := Config{Mode: ModeSite, CycleElim: true, Reuse: true}
	m2 := wire.NewMessage(0)
	if _, err := WriteValues(m2, []model.Value{model.Ref(ia), model.Ref(da)}, []*Plan{planI, planD}, cfg, &c); err != nil {
		t.Fatal(err)
	}
	got2, roots, _, err := ReadValuesScratch(wire.FromBytes(m2.Bytes()), w.reg, 2, []*Plan{planI, planD}, cfg, nil, nil, &c)
	if err != nil || !testkit.DeepEqual(ia, got2[0].O) || !testkit.DeepEqual(da, got2[1].O) {
		t.Fatalf("planned primitive arrays: %v", err)
	}
	got3, _, _, err := ReadValuesScratch(wire.FromBytes(m2.Bytes()), w.reg, 2, []*Plan{planI, planD}, cfg, roots, nil, &c)
	if err != nil {
		t.Fatal(err)
	}
	if got3[0].O != got2[0].O || got3[1].O != got2[1].O {
		t.Fatal("primitive arrays not reused")
	}
}

func TestRefArrayPlans(t *testing.T) {
	w := newRichWorld()
	g, _ := w.reg.ByName("G")
	elemNP := &NodePlan{Class: g, Steps: []Step{{Op: OpInt, Field: 0, FieldName: "i"}}}
	// Elements planned.
	arrNP := &NodePlan{Class: w.gArr, Elem: elemNP}
	plan := &Plan{Site: "ra", Kind: model.FRef, Root: arrNP, NeedCycle: true, Reusable: true}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}

	arr := model.NewArray(w.gArr, 3)
	for i := range arr.Refs {
		o := model.New(g)
		o.Set("i", model.Int(int64(i)))
		arr.Refs[i] = o
	}
	arr.Refs[2] = arr.Refs[0] // sharing inside the array

	var c stats.Counters
	cfg := Config{Mode: ModeSite, Reuse: true}
	m := wire.NewMessage(0)
	if _, err := WriteValues(m, []model.Value{model.Ref(arr)}, []*Plan{plan}, cfg, &c); err != nil {
		t.Fatal(err)
	}
	got, roots, _, err := ReadValuesScratch(wire.FromBytes(m.Bytes()), w.reg, 1, []*Plan{plan}, cfg, nil, nil, &c)
	if err != nil || !testkit.DeepEqual(arr, got[0].O) {
		t.Fatalf("ref array round trip: %v", err)
	}
	if got[0].O.Refs[2] != got[0].O.Refs[0] {
		t.Fatal("array element sharing lost")
	}
	// Reuse pass keeps the same backing objects.
	m2 := wire.NewMessage(0)
	if _, err := WriteValues(m2, []model.Value{model.Ref(arr)}, []*Plan{plan}, cfg, &c); err != nil {
		t.Fatal(err)
	}
	got2, _, _, err := ReadValuesScratch(wire.FromBytes(m2.Bytes()), w.reg, 1, []*Plan{plan}, cfg, roots, nil, &c)
	if err != nil || got2[0].O != got[0].O {
		t.Fatalf("ref array reuse: %v", err)
	}

	// Dynamic elements (Elem == nil) still round-trip.
	dynArrNP := &NodePlan{Class: w.gArr}
	dplan := &Plan{Site: "rd", Kind: model.FRef, Root: dynArrNP, NeedCycle: true}
	m3 := wire.NewMessage(0)
	if _, err := WriteValues(m3, []model.Value{model.Ref(arr)}, []*Plan{dplan}, Config{Mode: ModeSite}, &c); err != nil {
		t.Fatal(err)
	}
	got3, _, _, err := ReadValuesScratch(wire.FromBytes(m3.Bytes()), w.reg, 1, []*Plan{dplan}, Config{Mode: ModeSite}, nil, nil, &c)
	if err != nil || !testkit.DeepEqual(arr, got3[0].O) {
		t.Fatalf("dynamic-element array round trip: %v", err)
	}
}

func TestClassModeStringValuesCountStringObjects(t *testing.T) {
	w := newRichWorld()
	var c stats.Counters
	m := wire.NewMessage(0)
	if _, err := WriteValues(m, []model.Value{model.Str("hello")}, nil, Config{Mode: ModeClass}, &c); err != nil {
		t.Fatal(err)
	}
	// Java strings are two heap objects on the dynamic path.
	if s := c.Snapshot(); s.SerializerCalls != 2 || s.TypeOps != 2 {
		t.Fatalf("string-object accounting: %+v", s)
	}
	got, _, _, err := ReadValuesScratch(wire.FromBytes(m.Bytes()), w.reg, 1, nil, Config{Mode: ModeClass}, nil, nil, &c)
	if err != nil || got[0].S != "hello" {
		t.Fatalf("string round trip: %v %v", got, err)
	}
	if s := c.Snapshot(); s.AllocObjects != 2 {
		t.Fatalf("string read allocation accounting: %+v", s)
	}
}
