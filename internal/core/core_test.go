package core

import (
	"strings"
	"testing"

	"cormi/internal/model"
	"cormi/internal/serial"
	"cormi/internal/stats"
	"cormi/internal/testkit"
	"cormi/internal/wire"
)

func compile(t *testing.T, src string) *Result {
	t.Helper()
	r, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return r
}

const arrayBenchSrc = `
remote class ArrayBench {
	void send(double[][] arr) { }
	static void benchmark() {
		double[][] arr = new double[16][16];
		ArrayBench f = new ArrayBench();
		f.send(arr);
	}
}
`

func TestArrayBenchFigure13(t *testing.T) {
	r := compile(t, arrayBenchSrc)
	sites := r.SitesOfCallee("ArrayBench.send")
	if len(sites) != 1 {
		t.Fatalf("sites = %d", len(sites))
	}
	si := sites[0]
	if si.MayCycle {
		t.Fatal("array bench misflagged cyclic")
	}
	if !si.IgnoreRet {
		t.Fatal("void call should be ack-only")
	}
	if len(si.ArgPlans) != 1 || !si.ArgReusable[0] {
		t.Fatalf("arg not reusable: %+v", si.ArgReusable)
	}
	p := si.ArgPlans[0]
	if p.Root == nil || p.Root.Class.Name != "double[][]" || p.Root.Elem == nil ||
		p.Root.Elem.Class.Name != "double[]" {
		t.Fatalf("array plan wrong: %+v", p.Root)
	}
	if p.NeedCycle || !p.Reusable {
		t.Fatalf("plan flags wrong: %+v", p)
	}
	code := p.Pseudocode()
	if !strings.Contains(code, "append_double_array") {
		t.Fatalf("Figure 13 pseudocode missing bulk copy:\n%s", code)
	}
}

const linkedListSrc = `
class LinkedList {
	LinkedList Next;
	LinkedList(LinkedList n) { this.Next = n; }
}
remote class Foo {
	void send(LinkedList l) { }
	static void benchmark() {
		LinkedList head = null;
		for (int i = 0; i < 100; i = i + 1) {
			head = new LinkedList(head);
		}
		Foo f = new Foo();
		f.send(head);
	}
}
`

func TestLinkedListFigure14(t *testing.T) {
	r := compile(t, linkedListSrc)
	si := r.SitesOfCallee("Foo.send")[0]
	if !si.MayCycle {
		t.Fatal("linked list must keep cycle detection (paper's conservative verdict)")
	}
	if !si.ArgReusable[0] {
		t.Fatal("list argument should be reusable (does not escape send)")
	}
	p := si.ArgPlans[0]
	if p.Root == nil || p.Root.Class.Name != "LinkedList" {
		t.Fatalf("list plan: %+v", p.Root)
	}
	// The Next field must be an inlined recursive reference, not a
	// dynamic fallback: site-specific serialization removes the
	// per-node type info, which the paper credits for the gain.
	if len(p.Root.Steps) != 1 || p.Root.Steps[0].Op != serial.OpRef || p.Root.Steps[0].Target != p.Root {
		t.Fatalf("list plan steps: %+v", p.Root.Steps)
	}
}

const figure5Src = `
class Base { }
class Derived1 extends Base { int data; }
class Derived2 extends Base { Derived1 p; }
remote class Work {
	void foo(Base b) { }
	void go() {
		Base b1 = new Derived1();
		this.foo2(b1);
		Base b2 = new Derived2();
		this.foo2(b2);
	}
	void foo2(Base b) { }
	static void main() {
		Work w = new Work();
		Base b1 = new Derived1();
		w.foo(b1);
		Base b2 = new Derived2();
		w.foo(b2);
	}
}
`

func TestFigure5CallSiteSpecialization(t *testing.T) {
	r := compile(t, figure5Src)
	sites := r.SitesOfCallee("Work.foo")
	if len(sites) != 2 {
		t.Fatalf("Work.foo sites = %d", len(sites))
	}
	// Each call site sees exactly one derived class (Figure 6).
	s1, s2 := sites[0], sites[1]
	if s1.ArgPlans[0].Root == nil || s1.ArgPlans[0].Root.Class.Name != "Derived1" {
		t.Fatalf("site 1 inferred %v, want Derived1", s1.ArgPlans[0].Root)
	}
	if s2.ArgPlans[0].Root == nil || s2.ArgPlans[0].Root.Class.Name != "Derived2" {
		t.Fatalf("site 2 inferred %v, want Derived2", s2.ArgPlans[0].Root)
	}
	// Derived2.p inlines Derived1 (the paper: "copies the int field of
	// the object pointed to by p").
	steps := s2.ArgPlans[0].Root.Steps
	if len(steps) != 1 || steps[0].Op != serial.OpRef || steps[0].Target.Class.Name != "Derived1" {
		t.Fatalf("Derived2.p not inlined: %+v", steps)
	}
	// Site names are mangled with function + sequence number.
	if s1.Name != "Work.main.1" || s2.Name != "Work.main.2" {
		t.Fatalf("site names %q, %q", s1.Name, s2.Name)
	}

	// Mangled marshaler pseudocode mentions the inferred class.
	if code := s1.ArgPlans[0].Pseudocode(); !strings.Contains(code, "Derived1") {
		t.Fatalf("pseudocode:\n%s", code)
	}
}

func TestPolymorphicMergeFallsBack(t *testing.T) {
	// One call site receiving both derived classes cannot specialize.
	r := compile(t, `
class Base { }
class Derived1 extends Base { int data; }
class Derived2 extends Base { int data; }
remote class Work {
	void foo(Base b) { }
	static void main(boolean c) {
		Work w = new Work();
		Base b = new Derived1();
		if (c) { b = new Derived2(); }
		w.foo(b);
	}
}`)
	si := r.SitesOfCallee("Work.foo")[0]
	if si.ArgPlans[0].Root != nil {
		t.Fatalf("polymorphic site got a monomorphic plan for %s", si.ArgPlans[0].Root.Class)
	}
}

func TestFigure10EscapeCoverage(t *testing.T) {
	r := compile(t, `
remote class Foo {
	double sum;
	void foo(double[] a) {
		this.sum = a[0] + a[1];
	}
	static void main() {
		Foo f = new Foo();
		double[] a = new double[2];
		f.foo(a);
	}
}`)
	si := r.SitesOfCallee("Foo.foo")[0]
	if !si.ArgReusable[0] {
		t.Fatal("Figure 10: 'a' never escapes; the array object can be reused")
	}
}

func TestFigure11EscapeCoverage(t *testing.T) {
	r := compile(t, `
class Data { }
class Bar { Data d; }
remote class Foo {
	static Data d;
	void foo(Bar a) {
		Foo.d = a.d;
	}
	static void main() {
		Foo f = new Foo();
		Bar b = new Bar();
		b.d = new Data();
		f.foo(b);
	}
}`)
	si := r.SitesOfCallee("Foo.foo")[0]
	if si.ArgReusable[0] {
		t.Fatal("Figure 11: 'd' escapes, therefore 'a' escapes as well")
	}
}

func TestEscapeViaReceiverField(t *testing.T) {
	// Storing the argument into a field of the remote object keeps it
	// alive across invocations: not reusable.
	r := compile(t, `
class Data { }
remote class Foo {
	Data keep;
	void foo(Data a) {
		this.keep = a;
	}
	static void main() {
		Foo f = new Foo();
		f.foo(new Data());
	}
}`)
	si := r.SitesOfCallee("Foo.foo")[0]
	if si.ArgReusable[0] {
		t.Fatal("argument stored into receiver field must not be reusable")
	}
}

func TestEscapeViaReturn(t *testing.T) {
	r := compile(t, `
class Data { }
remote class Foo {
	Data foo(Data a) { return a; }
	static void main() {
		Foo f = new Foo();
		Data t = new Data();
		for (int i = 0; i < 100; i = i + 1) {
			t = f.foo(t);
		}
	}
}`)
	si := r.SitesOfCallee("Foo.foo")[0]
	if si.ArgReusable[0] {
		t.Fatal("returned argument must not be reusable")
	}
	if si.IgnoreRet {
		t.Fatal("return is used")
	}
}

func TestReturnValueReuseWebserverShape(t *testing.T) {
	r := compile(t, `
class Page { String body; }
remote class Server {
	Page get_page(String url) {
		Page p = new Page();
		p.body = "data";
		return p;
	}
}
remote class Master {
	void serve(Server s, String url) {
		Page page = s.get_page(url);
	}
}`)
	si := r.SitesOfCallee("Server.get_page")[0]
	if len(si.RetPlans) != 1 {
		t.Fatal("no return plan")
	}
	if si.RetMayCycle {
		t.Fatal("page graph misflagged cyclic")
	}
	if !si.RetReusable {
		t.Fatal("returned page should be reusable at the caller")
	}
	if si.RetPlans[0].Root == nil || si.RetPlans[0].Root.Class.Name != "Page" {
		t.Fatalf("return plan: %+v", si.RetPlans[0].Root)
	}
	// The URL string argument is a primitive plan.
	if si.ArgPlans[0].Kind != model.FString {
		t.Fatalf("url plan kind %v", si.ArgPlans[0].Kind)
	}
}

func TestIgnoredReturnDetected(t *testing.T) {
	r := compile(t, `
remote class F {
	int f() { return 1; }
	static void main() {
		F me = new F();
		me.f();
		int x = me.f();
		int y = x + 1;
	}
}`)
	sites := r.SitesOfCallee("F.f")
	if !sites[0].IgnoreRet || sites[1].IgnoreRet {
		t.Fatalf("ack verdicts: %v %v", sites[0].IgnoreRet, sites[1].IgnoreRet)
	}
}

// TestGeneratedPlansDriveRuntime ties the compiler to the runtime: a
// graph serialized under the compiled plan round-trips and honors the
// compile-time verdicts.
func TestGeneratedPlansDriveRuntime(t *testing.T) {
	r := compile(t, arrayBenchSrc)
	si := r.SitesOfCallee("ArrayBench.send")[0]
	plan := si.ArgPlans[0]

	arrClass, _ := r.Registry.ByName("double[][]")
	rowClass, _ := r.Registry.ByName("double[]")
	arr := model.NewArray(arrClass, 4)
	for i := range arr.Refs {
		row := model.NewArray(rowClass, 4)
		for j := range row.Doubles {
			row.Doubles[j] = float64(i*4 + j)
		}
		arr.Refs[i] = row
	}

	var c stats.Counters
	cfg := serial.Config{Mode: serial.ModeSite, CycleElim: true, Reuse: true}
	m := wire.NewMessage(0)
	if _, err := serial.WriteValues(m, []model.Value{model.Ref(arr)}, []*serial.Plan{plan}, cfg, &c); err != nil {
		t.Fatal(err)
	}
	got, roots, _, err := serial.ReadValuesScratch(wire.FromBytes(m.Bytes()), r.Registry, 1, []*serial.Plan{plan}, cfg, nil, nil, &c)
	if err != nil {
		t.Fatal(err)
	}
	if !testkit.DeepEqual(arr, got[0].O) {
		t.Fatal("compiled-plan round trip mismatch")
	}
	s := c.Snapshot()
	if s.CycleTables != 0 || s.TypeBytes != 0 || s.SerializerCalls != 0 {
		t.Fatalf("compiled plan leaked baseline work: %+v", s)
	}

	// Second message reuses the deserialized graph per §3.3.
	m2 := wire.NewMessage(0)
	if _, err := serial.WriteValues(m2, []model.Value{model.Ref(arr)}, []*serial.Plan{plan}, cfg, &c); err != nil {
		t.Fatal(err)
	}
	got2, _, _, err := serial.ReadValuesScratch(wire.FromBytes(m2.Bytes()), r.Registry, 1, []*serial.Plan{plan}, cfg, roots, nil, &c)
	if err != nil {
		t.Fatal(err)
	}
	if got2[0].O != got[0].O {
		t.Fatal("reuse verdict not honored by runtime")
	}
}

func TestDumpOutputs(t *testing.T) {
	r := compile(t, figure5Src)
	all := r.DumpAll()
	for _, frag := range []string{"Work.main.1", "Derived1", "may-cycle", "heap graph"} {
		if !strings.Contains(all, frag) {
			t.Fatalf("DumpAll missing %q", frag)
		}
	}
	ssa := r.SSA()
	if !strings.Contains(ssa, "func Work.main") || !strings.Contains(ssa, "rcall") {
		t.Fatalf("SSA dump:\n%s", ssa)
	}
	mc, _ := r.ModelClass("Derived2")
	classCode := ClassSpecificPseudocode(mc)
	if !strings.Contains(classCode, "write_type(this)") || !strings.Contains(classCode, "recursive dynamic call") {
		t.Fatalf("Figure 7 pseudocode:\n%s", classCode)
	}
}

func TestCompileErrors(t *testing.T) {
	for _, src := range []string{
		`class A {`,                          // parse error
		`class A { B b; }`,                   // check error
		`class A { void f() { return 1; } }`, // check error
	} {
		if _, err := Compile(src); err == nil {
			t.Fatalf("Compile(%q) should fail", src)
		}
	}
}

func TestSharedRegistryCompile(t *testing.T) {
	reg := model.NewRegistry()
	if _, err := CompileInto(arrayBenchSrc, reg); err != nil {
		t.Fatal(err)
	}
	// Compiling the same source into the same registry must not
	// attempt duplicate class registration.
	if _, err := CompileInto(arrayBenchSrc, reg); err != nil {
		t.Fatalf("recompile into shared registry: %v", err)
	}
}
