package model_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	. "cormi/internal/model"
	"cormi/internal/testkit"
)

// graphWorld builds a registry with classes rich enough to generate
// arbitrary object graphs: a node with two ref fields, every primitive
// field kind, and arrays.
type graphWorld struct {
	reg  *Registry
	node *Class
}

func newGraphWorld() *graphWorld {
	reg := NewRegistry()
	node := testkit.MustDefine(reg, "GNode", nil,
		Field{Name: "i", Kind: FInt},
		Field{Name: "d", Kind: FDouble},
		Field{Name: "b", Kind: FBool},
		Field{Name: "s", Kind: FString},
		Field{Name: "l", Kind: FRef},
		Field{Name: "r", Kind: FRef},
	)
	node.Fields[4].Class, node.Fields[5].Class = node, node
	return &graphWorld{reg: reg, node: node}
}

// randomGraph builds a graph of n nodes with random primitive payloads
// and random l/r edges (including back edges: cycles and sharing).
func (w *graphWorld) randomGraph(rng *rand.Rand, n int) *Object {
	if n <= 0 {
		return nil
	}
	nodes := make([]*Object, n)
	for i := range nodes {
		o := New(w.node)
		o.Set("i", Int(rng.Int63n(1000)))
		o.Set("d", Double(rng.Float64()))
		o.Set("b", Bool(rng.Intn(2) == 0))
		o.Set("s", Str(string(rune('a'+rng.Intn(26)))))
		nodes[i] = o
	}
	for i, o := range nodes {
		// Edges to any node (earlier ones create sharing/cycles).
		if rng.Intn(4) != 0 {
			o.Set("l", Ref(nodes[rng.Intn(n)]))
		}
		if rng.Intn(4) != 0 {
			o.Set("r", Ref(nodes[rng.Intn(n)]))
		}
		_ = i
	}
	return nodes[0]
}

func TestDeepClonePropertyRandomGraphs(t *testing.T) {
	w := newGraphWorld()
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(size%30) + 1
		g := w.randomGraph(rng, n)
		c := testkit.DeepClone(g)
		if !testkit.DeepEqual(g, c) {
			return false
		}
		// Structure is preserved: same reachable size, same cyclicity.
		gn, gb := testkit.GraphSize(g)
		cn, cb := testkit.GraphSize(c)
		if gn != cn || gb != cb {
			return false
		}
		if testkit.HasCycle(g) != testkit.HasCycle(c) {
			return false
		}
		// Disjointness: mutating the clone leaves the original alone.
		c.Set("i", Int(-999))
		return g.Get("i").I != -999
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestDeepEqualIsEquivalenceOnRandomGraphs(t *testing.T) {
	w := newGraphWorld()
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(size%20) + 1
		g := w.randomGraph(rng, n)
		// Reflexive and symmetric with a clone.
		c := testkit.DeepClone(g)
		return testkit.DeepEqual(g, g) && testkit.DeepEqual(g, c) && testkit.DeepEqual(c, g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneValuePassthrough(t *testing.T) {
	if testkit.CloneValue(Int(5)).I != 5 {
		t.Fatal("primitive clone")
	}
	if !testkit.CloneValue(Null()).IsNull() {
		t.Fatal("null clone")
	}
	w := newGraphWorld()
	o := New(w.node)
	v := testkit.CloneValue(Ref(o))
	if n, _ := testkit.GraphSize(v.O); v.O == o || n != 1 {
		t.Fatal("ref clone")
	}
}

func TestStringRenderings(t *testing.T) {
	w := newGraphWorld()
	o := New(w.node)
	o.Set("i", Int(7))
	s := o.String()
	if s == "" || s == "null" {
		t.Fatalf("Object.String = %q", s)
	}
	var nilObj *Object
	if nilObj.String() != "null" {
		t.Fatal("nil object string")
	}
	if Int(3).String() != "3" || Str("x").String() != `"x"` ||
		Bool(true).String() != "true" || Null().String() != "null" {
		t.Fatal("value strings")
	}
	if Double(2.5).String() != "2.5" {
		t.Fatalf("double string %s", Double(2.5).String())
	}
	if Ref(o).String() == "" {
		t.Fatal("ref string")
	}
	for _, k := range []ClassKind{KObject, KDoubleArray, KIntArray, KRefArray, ClassKind(3), ClassKind(99)} {
		if k.String() == "" {
			t.Fatalf("ClassKind(%d) has no name", k)
		}
	}
	for _, k := range []FieldKind{FInt, FDouble, FBool, FString, FRef, FieldKind(99)} {
		if k.String() == "" {
			t.Fatalf("FieldKind(%d) has no name", k)
		}
	}
	var nilClass *Class
	if nilClass.String() != "<nil class>" {
		t.Fatal("nil class string")
	}
}

func TestArrayGraphOps(t *testing.T) {
	reg := NewRegistry()
	leaf := testkit.MustDefine(reg, "Leaf", nil, Field{Name: "x", Kind: FInt})
	arr := NewArray(reg.ArrayOf(leaf), 3)
	shared := New(leaf)
	arr.Refs[0] = shared
	arr.Refs[1] = shared
	c := testkit.DeepClone(arr)
	if c.Refs[0] != c.Refs[1] || c.Refs[0] == shared {
		t.Fatal("array sharing clone")
	}
	if !testkit.DeepEqual(arr, c) {
		t.Fatal("array DeepEqual")
	}
	if testkit.HasCycle(arr) {
		t.Fatal("array misflagged cyclic")
	}
	// Array containing itself is a cycle.
	selfArr := NewArray(reg.ArrayOf(leaf), 1)
	outer := NewArray(reg.ArrayOf(reg.ArrayOf(leaf)), 1)
	_ = selfArr
	outer2 := NewArray(outer.Class, 1)
	outer2.Refs[0] = outer2
	if !testkit.HasCycle(outer2) {
		t.Fatal("self-containing array not cyclic")
	}
	n, _ := testkit.GraphSize(arr)
	if n != 2 { // array + shared leaf (nil slot ignored)
		t.Fatalf("GraphSize = %d", n)
	}

	// Primitive arrays: clones copy payloads.
	ia := NewArray(reg.IntArray(), 2)
	ia.Ints[1] = 9
	ci := testkit.DeepClone(ia)
	ci.Ints[1] = 0
	if ia.Ints[1] != 9 {
		t.Fatal("primitive array clone aliases")
	}
	if !testkit.DeepEqual(ia, testkit.DeepClone(ia)) {
		t.Fatal("primitive array DeepEqual")
	}
	if testkit.DeepEqual(ia, NewArray(reg.IntArray(), 3)) {
		t.Fatal("length mismatch equal")
	}
}

func TestNewArrayPanicsOnObjectClass(t *testing.T) {
	reg := NewRegistry()
	leaf := testkit.MustDefine(reg, "Leaf", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("NewArray on object class should panic")
		}
	}()
	NewArray(leaf, 3)
}

func TestGetSetUnknownFieldPanics(t *testing.T) {
	reg := NewRegistry()
	leaf := testkit.MustDefine(reg, "Leaf", nil, Field{Name: "x", Kind: FInt})
	o := New(leaf)
	for _, f := range []func(){
		func() { o.Get("nope") },
		func() { o.Set("nope", Int(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("unknown field access should panic")
				}
			}()
			f()
		}()
	}
}
