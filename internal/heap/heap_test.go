package heap

import (
	"strings"
	"testing"

	"cormi/internal/ir"
	"cormi/internal/lang"
)

func analyze(t *testing.T, src string) (*Analysis, *ir.Program) {
	t.Helper()
	f, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cp, err := lang.Check(f)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	p, err := ir.Lower(cp)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	if err := ir.Validate(p); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return Analyze(p), p
}

// argPointsTo returns the caller-side points-to sets of a remote site's
// serialized arguments (receiver excluded).
func argPointsTo(a *Analysis, site *ir.Instr) []NodeSet {
	var sets []NodeSet
	for i, arg := range site.Args {
		if i == 0 && !site.Callee.Static {
			continue
		}
		if lang.IsRef(arg.Type) {
			sets = append(sets, a.PointsTo(arg))
		}
	}
	return sets
}

const figure2Src = `
class Bar { }
class Foo {
	Bar bar;
	double[][][] a;
	static void main() {
		Foo foo = new Foo();
		foo.bar = new Bar();
		foo.a = new double[2][3][];
	}
}
`

func TestFigure2HeapGraph(t *testing.T) {
	a, p := analyze(t, figure2Src)
	// Find the Foo allocation node.
	var fooNode NodeID = -1
	for _, in := range p.AllocSites {
		if in != nil && in.Op == ir.OpNew && in.Class.Name == "Foo" {
			if id, ok := a.NodeOfAlloc(in, MergedCtx); ok {
				fooNode = id
			}
		}
	}
	if fooNode < 0 {
		t.Fatal("no Foo node")
	}
	barSet := a.Field(fooNode, "Foo.bar")
	if len(barSet) != 1 {
		t.Fatalf("foo.bar points to %s", barSet)
	}
	aSet := a.Field(fooNode, "Foo.a")
	if len(aSet) != 1 {
		t.Fatalf("foo.a points to %s", aSet)
	}
	// The 3-dim array: outer node has "[]" edge to middle node; the
	// innermost dimension is unsized so the chain stops there.
	for _, outer := range aSet {
		mid := a.Field(outer, ElemKey)
		if len(mid) != 1 {
			t.Fatalf("outer[] points to %s", mid)
		}
		if a.Nodes[outer].Type.String() != "double[][][]" {
			t.Fatalf("outer type %s", a.Nodes[outer].Type)
		}
		for _, m := range mid {
			if a.Nodes[m].Type.String() != "double[][]" {
				t.Fatalf("middle type %s", a.Nodes[m].Type)
			}
		}
	}
	// Dump must mention the allocations and the "[]" edge (Figure 2).
	dump := a.DumpGraph(NodeSet{fooNode})
	for _, frag := range []string{"Foo", "Bar", "double[][][]", `"[]"`} {
		if !strings.Contains(dump, frag) {
			t.Fatalf("dump missing %q:\n%s", frag, dump)
		}
	}
	// No cycles in this graph.
	if a.MayCycleFrom([]NodeSet{{fooNode}}) {
		t.Fatal("Figure 2 graph misflagged as cyclic")
	}
}

const figure3Src = `
class Obj { }
remote class Foo {
	Obj foo(Obj a) { return a; }
	static void zoo() {
		Foo me = new Foo();
		Obj t = new Obj();
		for (int i = 0; i < 100; i = i + 1) {
			t = me.foo(t);
		}
	}
}
`

func TestFigure3TerminationAndTuples(t *testing.T) {
	a, p := analyze(t, figure3Src)
	if a.Iterations >= 100 {
		t.Fatalf("fixpoint took %d iterations; cloning loop not damped", a.Iterations)
	}
	site := p.RemoteSites[0]
	// t's final set: the original Obj allocation plus exactly one
	// clone from the return (the Figure 4 behavior: {(2,2),(4,2)}).
	tSet := a.PointsTo(site.Args[1])
	if len(tSet) != 2 {
		t.Fatalf("t points to %s, want exactly {orig, one clone}", tSet)
	}
	var orig, clone *Node
	for _, id := range tSet {
		n := a.Nodes[id]
		if n.IsClone() {
			clone = n
		} else {
			orig = n
		}
	}
	if orig == nil || clone == nil {
		t.Fatalf("t's set should mix original and clone: %s", tSet)
	}
	if clone.Physical != orig.Physical {
		t.Fatalf("clone physical %d != original physical %d", clone.Physical, orig.Physical)
	}
	if clone.Logical == orig.Logical {
		t.Fatal("clone did not get a fresh logical number")
	}
	// The callee parameter sees only clones (by-copy semantics).
	callee := p.FuncOf[site.Callee]
	for _, id := range a.PointsTo(callee.Params[1]) {
		if !a.Nodes[id].IsClone() {
			t.Fatalf("callee param sees original node %s", a.Nodes[id])
		}
	}
}

func TestFigure8SameObjectTwiceMayCycle(t *testing.T) {
	a, p := analyze(t, `
class Base { }
remote class W {
	void bar(Base x, Base y) { }
	static void foo() {
		W w = new W();
		Base b = new Base();
		w.bar(b, b);
	}
}`)
	if !a.MayCycleFrom(argPointsTo(a, p.RemoteSites[0])) {
		t.Fatal("same object passed twice must require cycle detection (Figure 8)")
	}
}

func TestFigure9SelfReferenceMayCycle(t *testing.T) {
	a, p := analyze(t, `
class Base { Base self; }
remote class W {
	void bar(Base x) { }
	static void foo() {
		W w = new W();
		Base b = new Base();
		b.self = b;
		w.bar(b);
	}
}`)
	if !a.MayCycleFrom(argPointsTo(a, p.RemoteSites[0])) {
		t.Fatal("self reference must require cycle detection (Figure 9)")
	}
}

func TestLinkedListFlaggedCyclic(t *testing.T) {
	// The paper notes linked lists are (conservatively) misidentified
	// as having cycles: all nodes share one allocation site.
	a, p := analyze(t, `
class LinkedList {
	LinkedList Next;
	LinkedList(LinkedList n) { this.Next = n; }
}
remote class F {
	void send(LinkedList l) { }
	static void benchmark() {
		LinkedList head = null;
		for (int i = 0; i < 100; i = i + 1) {
			head = new LinkedList(head);
		}
		F f = new F();
		f.send(head);
	}
}`)
	if !a.MayCycleFrom(argPointsTo(a, p.RemoteSites[0])) {
		t.Fatal("linked list should be conservatively flagged cyclic")
	}
}

func TestArrayBenchAcyclic(t *testing.T) {
	a, p := analyze(t, `
remote class F {
	void send(double[][] arr) { }
	static void benchmark() {
		double[][] arr = new double[16][16];
		F f = new F();
		f.send(arr);
	}
}`)
	if a.MayCycleFrom(argPointsTo(a, p.RemoteSites[0])) {
		t.Fatal("2D double array misflagged as cyclic")
	}
}

func TestDistinctSiblingsNotCyclic(t *testing.T) {
	a, p := analyze(t, `
class Leaf { }
class Pair { Leaf l; Leaf r; }
remote class W {
	void take(Pair p) { }
	static void go() {
		Pair p = new Pair();
		p.l = new Leaf();
		p.r = new Leaf();
		W w = new W();
		w.take(p);
	}
}`)
	if a.MayCycleFrom(argPointsTo(a, p.RemoteSites[0])) {
		t.Fatal("tree with distinct leaves misflagged as cyclic")
	}
}

func TestSharedLeafFlagged(t *testing.T) {
	a, p := analyze(t, `
class Leaf { }
class Pair { Leaf l; Leaf r; }
remote class W {
	void take(Pair p) { }
	static void go() {
		Pair p = new Pair();
		Leaf shared = new Leaf();
		p.l = shared;
		p.r = shared;
		W w = new W();
		w.take(p);
	}
}`)
	if !a.MayCycleFrom(argPointsTo(a, p.RemoteSites[0])) {
		t.Fatal("shared leaf (DAG) must be conservatively flagged")
	}
}

func TestCloneSubgraphMirrored(t *testing.T) {
	a, p := analyze(t, `
class Inner { }
class Outer { Inner in; }
remote class W {
	void take(Outer o) { }
	static void go() {
		Outer o = new Outer();
		o.in = new Inner();
		W w = new W();
		w.take(o);
	}
}`)
	site := p.RemoteSites[0]
	callee := p.FuncOf[site.Callee]
	paramSet := a.PointsTo(callee.Params[1])
	if len(paramSet) != 1 {
		t.Fatalf("param set %s", paramSet)
	}
	for _, id := range paramSet {
		n := a.Nodes[id]
		if !n.IsClone() {
			t.Fatal("param node is not a clone")
		}
		inner := a.Field(id, "Outer.in")
		if len(inner) != 1 {
			t.Fatalf("clone field edges not mirrored: %s", inner)
		}
		for _, m := range inner {
			if !a.Nodes[m].IsClone() {
				t.Fatal("clone points to original child (graph not cloned deeply)")
			}
			if a.Nodes[m].Type.String() != "Inner" {
				t.Fatalf("mirrored child type %s", a.Nodes[m].Type)
			}
		}
	}
}

func TestStaticsTracked(t *testing.T) {
	a, p := analyze(t, `
class Data { }
class Holder {
	static Data d;
	static void set() {
		Holder.d = new Data();
	}
	static Data get() {
		return Holder.d;
	}
}`)
	seeds := a.GlobalSeeds()
	if len(seeds) != 1 {
		t.Fatalf("global seeds %s", seeds)
	}
	// get()'s return must include the global node.
	get := p.FuncOf[p.Lang.Classes["Holder"].MethodByName("get")]
	rvs := ir.ReturnValues(get)
	if len(rvs) != 1 {
		t.Fatal("get has no return")
	}
	got := a.PointsTo(rvs[0])
	for _, id := range seeds {
		if !got.Has(id) {
			t.Fatalf("get() return %s missing global node %d", got, id)
		}
	}
}

func TestInterproceduralFlow(t *testing.T) {
	a, p := analyze(t, `
class Box { Box inner; }
class Lib {
	static Box wrap(Box b) {
		Box w = new Box();
		w.inner = b;
		return w;
	}
	static void main() {
		Box leaf = new Box();
		Box w = Lib.wrap(leaf);
	}
}`)
	main := p.FuncOf[p.Lang.Classes["Lib"].MethodByName("main")]
	// Find w's value: the OpCall dst.
	var callDst *ir.Value
	main.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpCall && in.Dst != nil {
			callDst = in.Dst
		}
		return true
	})
	set := a.PointsTo(callDst)
	if len(set) != 1 {
		t.Fatalf("w points to %s, want exactly the wrapper alloc", set)
	}
	for _, id := range set {
		inner := a.Field(id, "Box.inner")
		if len(inner) != 1 {
			t.Fatalf("wrapper.inner = %s", inner)
		}
	}
}

func TestNodeSetOps(t *testing.T) {
	s := NodeSet{}
	if !s.Add(3) || s.Add(3) {
		t.Fatal("Add change reporting")
	}
	t2 := NodeSet{}
	t2.Add(3)
	t2.Add(5)
	if !s.AddAll(t2) || s.AddAll(t2) {
		t.Fatal("AddAll change reporting")
	}
	if got := s.String(); got != "{3,5}" {
		t.Fatalf("String = %s", got)
	}
	if !s.Has(5) || s.Has(4) {
		t.Fatal("Has")
	}
}
