package model_test

import (
	"testing"

	. "cormi/internal/model"
	"cormi/internal/testkit"
)

func newTestRegistry(t testing.TB) (*Registry, *Class, *Class) {
	t.Helper()
	reg := NewRegistry()
	bar := reg.MustDefine("Bar", nil, Field{Name: "x", Kind: FInt})
	foo := reg.MustDefine("Foo", nil,
		Field{Name: "bar", Kind: FRef, Class: bar},
		Field{Name: "d", Kind: FDouble},
		Field{Name: "name", Kind: FString},
	)
	return reg, foo, bar
}

func TestRegistryDefineAndLookup(t *testing.T) {
	reg, foo, bar := newTestRegistry(t)
	if c, ok := reg.ByName("Foo"); !ok || c != foo {
		t.Fatalf("ByName(Foo) = %v, %v", c, ok)
	}
	table := reg.Classes()
	if c, ok := ClassByID(table, foo.ID); !ok || c != foo {
		t.Fatalf("ClassByID(%d) = %v, %v", foo.ID, c, ok)
	}
	for _, id := range []int32{0, -1, int32(len(table))} {
		if c, ok := ClassByID(table, id); ok {
			t.Fatalf("ClassByID(%d) = %v, want no class", id, c)
		}
	}
	if foo.ID == bar.ID {
		t.Fatalf("classes share ID %d", foo.ID)
	}
	if _, err := reg.Define("Foo", nil); err == nil {
		t.Fatal("duplicate Define(Foo) should fail")
	}
}

func TestRegistryBuiltinsAndArrayOf(t *testing.T) {
	reg := NewRegistry()
	da := reg.DoubleArray()
	if da.Kind != KDoubleArray {
		t.Fatalf("double[] kind = %v", da.Kind)
	}
	dda := reg.ArrayOf(da)
	if dda.Name != "double[][]" || dda.Kind != KRefArray || dda.Elem != da {
		t.Fatalf("ArrayOf(double[]) = %+v", dda)
	}
	if again := reg.ArrayOf(da); again != dda {
		t.Fatal("ArrayOf not idempotent")
	}
	if reg.IntArray().Kind != KIntArray || reg.MustByName("byte[]").Kind != KByteArray {
		t.Fatal("builtin array kinds wrong")
	}
}

func TestClassInheritanceLayout(t *testing.T) {
	reg := NewRegistry()
	base := reg.MustDefine("Base", nil, Field{Name: "a", Kind: FInt})
	der := reg.MustDefine("Derived", base, Field{Name: "b", Kind: FDouble})
	all := der.AllFields()
	if len(all) != 2 || all[0].Name != "a" || all[1].Name != "b" {
		t.Fatalf("flattened layout = %v", all)
	}
	if der.FieldIndex("a") != 0 || der.FieldIndex("b") != 1 || der.FieldIndex("zz") != -1 {
		t.Fatal("FieldIndex wrong")
	}
	if der.Super != base || base.Super != nil {
		t.Fatal("superclass links wrong")
	}
	o := New(der)
	if len(o.Fields) != 2 || o.Fields[0].Kind != FInt || o.Fields[1].Kind != FDouble {
		t.Fatalf("zeroed instance = %v", o)
	}
}

func TestObjectGetSet(t *testing.T) {
	_, foo, bar := newTestRegistry(t)
	o := New(foo)
	b := New(bar)
	b.Set("x", Int(7))
	o.Set("bar", Ref(b))
	o.Set("d", Double(3.5))
	o.Set("name", Str("hi"))
	if o.GetRef("bar") != b || o.Get("d").D != 3.5 || o.Get("name").S != "hi" {
		t.Fatalf("round trip failed: %v", o)
	}
	if b.Get("x").I != 7 {
		t.Fatal("int field lost")
	}
}

func TestArrays(t *testing.T) {
	reg := NewRegistry()
	da := NewArray(reg.DoubleArray(), 4)
	da.Doubles[3] = 9.25
	if da.Len() != 4 {
		t.Fatalf("Len = %d", da.Len())
	}
	dda := NewArray(reg.ArrayOf(reg.DoubleArray()), 2)
	dda.Refs[0] = da
	if dda.Refs[0].Doubles[3] != 9.25 {
		t.Fatal("nested array access failed")
	}
	ia := NewArray(reg.IntArray(), 3)
	ba := NewArray(reg.MustByName("byte[]"), 5)
	if ia.SizeBytes() != 16+24 || ba.SizeBytes() != 16+5 {
		t.Fatalf("SizeBytes: %d %d", ia.SizeBytes(), ba.SizeBytes())
	}
}

func TestValues(t *testing.T) {
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Fatal("bool round trip")
	}
	if !Null().IsNull() {
		t.Fatal("Null not null")
	}
	if Int(3).Equal(Int(4)) || !Int(3).Equal(Int(3)) {
		t.Fatal("int Equal")
	}
	if Int(3).Equal(Double(3)) {
		t.Fatal("kind mismatch should be unequal")
	}
}

func buildList(reg *Registry, n int) *Object {
	node := reg.MustByName("Node")
	var head *Object
	for i := 0; i < n; i++ {
		x := New(node)
		x.Set("v", Int(int64(i)))
		x.Set("next", Ref(head))
		head = x
	}
	return head
}

func listRegistry() *Registry {
	reg := NewRegistry()
	node := reg.MustDefine("Node", nil, Field{Name: "v", Kind: FInt}, Field{Name: "next", Kind: FRef})
	node.Fields[1].Class = node
	return reg
}

func TestDeepCloneList(t *testing.T) {
	reg := listRegistry()
	head := buildList(reg, 50)
	c := DeepClone(head)
	if n, _ := testkit.GraphSize(c); n != 50 || c == head {
		t.Fatalf("clone holds %d objects, want 50 fresh ones", n)
	}
	if !testkit.DeepEqual(head, c) {
		t.Fatal("clone not deep-equal")
	}
	// Mutation of the clone must not leak back.
	c.Set("v", Int(-1))
	if head.Get("v").I == -1 {
		t.Fatal("clone aliases original")
	}
}

func TestDeepCloneSharingAndCycles(t *testing.T) {
	reg := listRegistry()
	node := reg.MustByName("Node")
	a := New(node)
	b := New(node)
	a.Set("next", Ref(b))
	b.Set("next", Ref(a)) // cycle
	c := DeepClone(a)
	if c.GetRef("next").GetRef("next") != c {
		t.Fatal("cycle not preserved in clone")
	}
	if !testkit.HasCycle(c) || !testkit.HasCycle(a) {
		t.Fatal("HasCycle missed cycle")
	}

	// Shared diamond: two fields pointing to the same object must stay
	// shared after cloning.
	reg2 := NewRegistry()
	leaf := reg2.MustDefine("Leaf", nil, Field{Name: "x", Kind: FInt})
	pair := reg2.MustDefine("Pair", nil,
		Field{Name: "l", Kind: FRef, Class: leaf},
		Field{Name: "r", Kind: FRef, Class: leaf},
	)
	shared := New(leaf)
	p := New(pair)
	p.Set("l", Ref(shared))
	p.Set("r", Ref(shared))
	pc := DeepClone(p)
	if pc.GetRef("l") != pc.GetRef("r") {
		t.Fatal("sharing lost in clone")
	}
	if testkit.HasCycle(p) {
		t.Fatal("diamond is not a cycle")
	}
}

func TestDeepEqualDistinguishes(t *testing.T) {
	reg := listRegistry()
	a := buildList(reg, 5)
	b := buildList(reg, 5)
	if !testkit.DeepEqual(a, b) {
		t.Fatal("equal lists not DeepEqual")
	}
	b.Set("v", Int(99))
	if testkit.DeepEqual(a, b) {
		t.Fatal("different lists DeepEqual")
	}
	c := buildList(reg, 6)
	if testkit.DeepEqual(a, c) {
		t.Fatal("different lengths DeepEqual")
	}
	// Cyclic vs acyclic with same local shape.
	node := reg.MustByName("Node")
	x := New(node)
	x.Set("next", Ref(x))
	y := New(node)
	z := New(node)
	y.Set("next", Ref(z))
	if testkit.DeepEqual(x, y) {
		t.Fatal("cycle vs chain DeepEqual")
	}
	x2 := New(node)
	x2.Set("next", Ref(x2))
	if !testkit.DeepEqual(x, x2) {
		t.Fatal("isomorphic cycles not DeepEqual")
	}
}

func TestGraphSize(t *testing.T) {
	reg := listRegistry()
	head := buildList(reg, 10)
	n, bytes := testkit.GraphSize(head)
	if n != 10 {
		t.Fatalf("GraphSize objects = %d", n)
	}
	if want := int64(10 * (16 + 16)); bytes != want {
		t.Fatalf("GraphSize bytes = %d, want %d", bytes, want)
	}
	// Shared nodes counted once.
	node := reg.MustByName("Node")
	a := New(node)
	a.Set("next", Ref(a))
	if n, _ := testkit.GraphSize(a); n != 1 {
		t.Fatalf("self-loop GraphSize = %d", n)
	}
}

func TestNewPanicsOnWrongKind(t *testing.T) {
	reg := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("New on array class should panic")
		}
	}()
	New(reg.DoubleArray())
}
