package ir

import (
	"strings"
	"testing"

	"cormi/internal/lang"
)

func lower(t *testing.T, src string) *Program {
	t.Helper()
	f, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cp, err := lang.Check(f)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	p, err := Lower(cp)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	if err := Validate(p); err != nil {
		t.Fatalf("validate: %v\n%s", err, dumpFuncs(p))
	}
	return p
}

func dumpFuncs(p *Program) string {
	var b strings.Builder
	for _, f := range p.Funcs {
		b.WriteString(f.String())
	}
	return b.String()
}

func fn(t *testing.T, p *Program, name string) *Func {
	t.Helper()
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("no function %s", name)
	return nil
}

func countOps(f *Func, op Op) int {
	n := 0
	f.Instrs(func(in *Instr) bool {
		if in.Op == op {
			n++
		}
		return true
	})
	return n
}

func TestStraightLineLowering(t *testing.T) {
	p := lower(t, `
class A {
	int x;
	static void f() {
		A a = new A();
		a.x = 3;
		int y = a.x + 1;
	}
}`)
	f := fn(t, p, "A.f")
	if len(f.Blocks) != 1 {
		t.Fatalf("blocks = %d", len(f.Blocks))
	}
	if countOps(f, OpNew) != 1 || countOps(f, OpStore) != 1 || countOps(f, OpLoad) != 1 ||
		countOps(f, OpBin) != 1 || countOps(f, OpRet) != 1 {
		t.Fatalf("op mix wrong:\n%s", f.String())
	}
	if len(p.AllocSites) != 1 || p.AllocSites[0] == nil || p.AllocSites[0].Op != OpNew {
		t.Fatal("alloc site not recorded")
	}
}

func TestIfElsePhi(t *testing.T) {
	p := lower(t, `
class A {
	static int f(boolean c) {
		int x = 0;
		if (c) { x = 1; } else { x = 2; }
		return x;
	}
}`)
	f := fn(t, p, "A.f")
	if n := countOps(f, OpPhi); n != 1 {
		t.Fatalf("phis = %d, want 1:\n%s", n, f.String())
	}
	phi := findOp(f, OpPhi)
	if len(phi.Args) != 2 {
		t.Fatalf("phi arity = %d", len(phi.Args))
	}
	// The return must use the phi.
	ret := findOp(f, OpRet)
	if len(ret.Args) != 1 || ret.Args[0] != phi.Dst {
		t.Fatalf("return does not use phi:\n%s", f.String())
	}
}

func findOp(f *Func, op Op) *Instr {
	var found *Instr
	f.Instrs(func(in *Instr) bool {
		if in.Op == op {
			found = in
			return false
		}
		return true
	})
	return found
}

func TestLoopPhi(t *testing.T) {
	p := lower(t, `
class A {
	static int sum(int n) {
		int s = 0;
		for (int i = 0; i < n; i = i + 1) {
			s = s + i;
		}
		return s;
	}
}`)
	f := fn(t, p, "A.sum")
	// Loop header needs phis for s and i.
	if n := countOps(f, OpPhi); n != 2 {
		t.Fatalf("phis = %d, want 2:\n%s", n, f.String())
	}
	// Each phi must have exactly 2 operands (entry + back edge).
	f.Instrs(func(in *Instr) bool {
		if in.Op == OpPhi && len(in.Args) != 2 {
			t.Fatalf("phi arity %d:\n%s", len(in.Args), f.String())
		}
		return true
	})
}

func TestWhileAndNestedLoops(t *testing.T) {
	p := lower(t, `
class A {
	static int f(int n) {
		int total = 0;
		int i = 0;
		while (i < n) {
			int j = 0;
			while (j < i) {
				total = total + 1;
				j = j + 1;
			}
			i = i + 1;
		}
		return total;
	}
}`)
	f := fn(t, p, "A.f")
	if countOps(f, OpBranch) != 2 {
		t.Fatalf("branches = %d:\n%s", countOps(f, OpBranch), f.String())
	}
}

func TestReturnTerminatesLowering(t *testing.T) {
	p := lower(t, `
class A {
	static int f(boolean c) {
		if (c) { return 1; }
		return 2;
	}
}`)
	f := fn(t, p, "A.f")
	if n := countOps(f, OpRet); n != 2 {
		t.Fatalf("returns = %d:\n%s", n, f.String())
	}
}

func TestRemoteCallSiteAndIgnoredReturn(t *testing.T) {
	p := lower(t, `
remote class F {
	int f() { return 1; }
	static void go() {
		F me = new F();
		me.f();
		int used = me.f();
		int sink = used + 1;
		F other = new F();
		int dead = other.f();
	}
}`)
	if len(p.RemoteSites) != 3 {
		t.Fatalf("remote sites = %d", len(p.RemoteSites))
	}
	if !IgnoredReturn(p.RemoteSites[0]) {
		t.Fatal("bare call should have ignored return")
	}
	if IgnoredReturn(p.RemoteSites[1]) {
		t.Fatal("used call misclassified")
	}
	if !IgnoredReturn(p.RemoteSites[2]) {
		t.Fatal("dead-assignment call should count as ignored")
	}
}

func TestConstructorLowering(t *testing.T) {
	p := lower(t, `
class LinkedList {
	LinkedList Next;
	LinkedList(LinkedList n) { this.Next = n; }
	static LinkedList build(int n) {
		LinkedList head = null;
		for (int i = 0; i < n; i = i + 1) {
			head = new LinkedList(head);
		}
		return head;
	}
}`)
	build := fn(t, p, "LinkedList.build")
	// new + constructor call.
	if countOps(build, OpNew) != 1 || countOps(build, OpCall) != 1 {
		t.Fatalf("ctor lowering wrong:\n%s", build.String())
	}
	ctor := fn(t, p, "LinkedList.LinkedList")
	if len(ctor.Params) != 2 {
		t.Fatalf("ctor params = %d (this + n)", len(ctor.Params))
	}
	if countOps(ctor, OpStore) != 1 {
		t.Fatalf("ctor store missing:\n%s", ctor.String())
	}
}

func TestMultiDimArrayLowering(t *testing.T) {
	p := lower(t, `
class A {
	static double[][] mk() {
		double[][] m = new double[16][16];
		m[0][0] = 1.5;
		return m;
	}
}`)
	f := fn(t, p, "A.mk")
	// Two allocation levels (outer double[][], inner double[]) plus a
	// store linking them.
	if countOps(f, OpNewArray) != 2 {
		t.Fatalf("array allocs = %d:\n%s", countOps(f, OpNewArray), f.String())
	}
	if countOps(f, OpStoreIdx) != 2 { // link store + user store
		t.Fatalf("storeidx = %d:\n%s", countOps(f, OpStoreIdx), f.String())
	}
	if len(p.AllocSites) != 2 {
		t.Fatalf("alloc sites = %d", len(p.AllocSites))
	}
}

func TestStaticsAndBuiltins(t *testing.T) {
	p := lower(t, `
class A {
	static A cache;
	static int f(String s) {
		A.cache = new A();
		A x = cache;
		return s.hashCode() + s.length();
	}
}`)
	f := fn(t, p, "A.f")
	if countOps(f, OpStoreStatic) != 1 || countOps(f, OpLoadStatic) != 1 {
		t.Fatalf("static ops wrong:\n%s", f.String())
	}
	if countOps(f, OpStrBuiltin) != 2 {
		t.Fatalf("builtins = %d:\n%s", countOps(f, OpStrBuiltin), f.String())
	}
}

func TestDominators(t *testing.T) {
	p := lower(t, `
class A {
	static int f(boolean c, int n) {
		int x = 0;
		if (c) { x = 1; } else { x = 2; }
		for (int i = 0; i < n; i = i + 1) { x = x + 1; }
		return x;
	}
}`)
	f := fn(t, p, "A.f")
	var dom domTree
	dom.compute(f)
	entry := f.Entry()
	if dom.idom[entry.ID] != entry {
		t.Fatal("entry must self-dominate")
	}
	for _, b := range dom.rpo {
		if !dom.dominates(entry, b) {
			t.Fatalf("entry does not dominate block %d", b.ID)
		}
	}
	// A block never dominates its dominator (except entry).
	for _, b := range dom.rpo {
		if d := dom.idom[b.ID]; b != entry && dom.dominates(b, d) && b != d {
			t.Fatalf("block %d dominates its idom %d", b.ID, d.ID)
		}
	}
}

func TestUnreachableJoinAfterBothReturn(t *testing.T) {
	lower(t, `
class A {
	static int f(boolean c) {
		if (c) { return 1; } else { return 2; }
	}
}`)
}

func TestValidateCatchesBrokenSSA(t *testing.T) {
	p := lower(t, `
class A { static int f() { int x = 1; return x; } }`)
	f := p.Funcs[0]
	// Corrupt: duplicate destination assignment.
	c := findOp(f, OpConst)
	ret := findOp(f, OpRet)
	bad := &Instr{Op: OpConst, Block: f.Entry(), Dst: c.Dst}
	f.Entry().Instrs = []*Instr{c, bad, ret}
	if err := Validate(p); err == nil {
		t.Fatal("duplicate assignment accepted")
	}
}

func TestReturnValuesCollection(t *testing.T) {
	p := lower(t, `
class A {
	static int f(boolean c) {
		if (c) { return 1; }
		return 2;
	}
}`)
	f := fn(t, p, "A.f")
	if len(ReturnValues(f)) != 2 {
		t.Fatalf("return values = %d", len(ReturnValues(f)))
	}
}

func TestPrintSmoke(t *testing.T) {
	p := lower(t, `
remote class F {
	F f(F a) { return a; }
	static void go() {
		F me = new F();
		F t = me.f(me);
	}
	static void consts() {
		String s = ""; double d = 0.0; boolean b = false; int i = 0;
		F n = null; double e = 2.5;
	}
}`)
	out := dumpFuncs(p)
	for _, frag := range []string{"func F.go", "rcall F.f site=0", "new F @",
		`const ""`, "const 0.0", "const false", "const 0\n", "const null", "const 2.5"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("dump missing %q:\n%s", frag, out)
		}
	}
	// The empty string, 0.0 and false are three constants, not three
	// spellings of the int 0.
	if n := strings.Count(out, "const 0\n"); n != 1 {
		t.Fatalf("%d constants print as the int 0, want 1:\n%s", n, out)
	}
}

// TestLoweringDeterministic: a loop header with several loop-carried
// variables gets its phis completed — and every value created on the
// way numbered — in the order the placeholders were created, not in
// map order. Lowering the same program 200 times must print one dump.
func TestLoweringDeterministic(t *testing.T) {
	const src = `
class A {
	static int f(int n) {
		int a = 0; int b = 1; int c = 2; int d = 3;
		int i = 0;
		while (i < n) {
			int j = 0;
			while (j < n) {
				a = a + b; b = b + c; c = c + d; d = d + a;
				j = j + 1;
			}
			i = i + 1;
		}
		return a + b + c + d;
	}
}`
	first := ""
	distinct := 0
	for run := 0; run < 200; run++ {
		dump := fn(t, lower(t, src), "A.f").String()
		if run == 0 {
			first = dump
		} else if dump != first {
			distinct++
		}
	}
	if distinct > 0 {
		t.Fatalf("%d of 200 lowerings differ from the first:\n%s", distinct, first)
	}
}

// TestReturnValuesDoesNotAllocate: the heap analysis asks for a
// callee's return values on every call transfer of every fixpoint
// pass; Lower collects them once.
func TestReturnValuesDoesNotAllocate(t *testing.T) {
	p := lower(t, `
class A {
	static A f(boolean c, A x, A y) {
		if (c) { return x; }
		return y;
	}
}`)
	f := fn(t, p, "A.f")
	if got := ReturnValues(f); len(got) != 2 || got[0] != f.Params[1] || got[1] != f.Params[2] {
		t.Fatalf("return values = %v", got)
	}
	if n := testing.AllocsPerRun(100, func() { _ = ReturnValues(f) }); n != 0 {
		t.Fatalf("ReturnValues allocates %.0f times per call", n)
	}
}
