package sched

import (
	"testing"

	"cormi/internal/ir"
	"cormi/internal/lang"
)

func compile(t *testing.T, src string) *ir.Program {
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
	return p
}

func funcIdx(t *testing.T, p *Plan, name string) int {
	t.Helper()
	for i, f := range p.Funcs {
		if f.Method.QualifiedName() == name {
			return i
		}
	}
	t.Fatalf("no function %q in plan", name)
	return -1
}

// Two disjoint class families with a mutually recursive pair in the
// first: the plan must find the SCC, flag only the pair recursive,
// order waves bottom-up, and split the program into two regions.
const planSrc = `
class ANode { int v; }
class A {
	static int leaf(int d) { return d + 1; }
	static int r1(int d) {
		if (d > 0) { return A.r2(d - 1); }
		return A.leaf(d);
	}
	static int r2(int d) {
		if (d > 0) { return A.r1(d - 1); }
		return A.leaf(d);
	}
	static int root(int d) { return A.r1(d); }
}
class B {
	static int other(int d) { return d * 2; }
}
`

func TestBuildPlanSCCsWavesComponents(t *testing.T) {
	p := BuildPlan(compile(t, planSrc))
	leaf := funcIdx(t, p, "A.leaf")
	r1 := funcIdx(t, p, "A.r1")
	r2 := funcIdx(t, p, "A.r2")
	root := funcIdx(t, p, "A.root")
	other := funcIdx(t, p, "B.other")

	if p.SCCOf[r1] != p.SCCOf[r2] {
		t.Errorf("r1/r2 in different SCCs (%d, %d)", p.SCCOf[r1], p.SCCOf[r2])
	}
	for _, i := range []int{leaf, root, other} {
		if p.SCCOf[i] == p.SCCOf[r1] {
			t.Errorf("%s wrongly joined the recursive SCC", p.Funcs[i].Method.QualifiedName())
		}
	}
	for i, want := range map[int]bool{leaf: false, r1: true, r2: true, root: false, other: false} {
		if p.Recursive[i] != want {
			t.Errorf("Recursive[%s] = %v, want %v", p.Funcs[i].Method.QualifiedName(), p.Recursive[i], want)
		}
	}
	// Bottom-up: leaf below the pair, the pair below root.
	if !(p.WaveOf[p.SCCOf[leaf]] < p.WaveOf[p.SCCOf[r1]] && p.WaveOf[p.SCCOf[r1]] < p.WaveOf[p.SCCOf[root]]) {
		t.Errorf("waves not bottom-up: leaf=%d pair=%d root=%d",
			p.WaveOf[p.SCCOf[leaf]], p.WaveOf[p.SCCOf[r1]], p.WaveOf[p.SCCOf[root]])
	}
	if len(p.Components) != 2 {
		t.Fatalf("got %d components, want 2", len(p.Components))
	}
	// Each component's Order must be a permutation of its Funcs with
	// waves ascending.
	for ci, c := range p.Components {
		if len(c.Order) != len(c.Funcs) {
			t.Fatalf("component %d: order/funcs length mismatch", ci)
		}
		for i := 1; i < len(c.Order); i++ {
			if p.WaveOf[p.SCCOf[c.Order[i-1]]] > p.WaveOf[p.SCCOf[c.Order[i]]] {
				t.Errorf("component %d: solve order not wave-ascending", ci)
			}
		}
	}
}

// A shared static field must couple otherwise unrelated functions into
// one region: facts flow through the static.
func TestSharedStaticCouplesComponents(t *testing.T) {
	src := `
class Node { int v; }
class A {
	static Node keep;
	static void put() { A.keep = new Node(); }
}
class B {
	static Node take() { return A.keep; }
}
`
	p := BuildPlan(compile(t, src))
	if len(p.Components) != 1 {
		t.Fatalf("got %d components, want 1 (static-coupled)", len(p.Components))
	}
}

func TestSelfRecursionFlagged(t *testing.T) {
	src := `
class A {
	static int f(int d) {
		if (d > 0) { return A.f(d - 1); }
		return d;
	}
}
`
	p := BuildPlan(compile(t, src))
	if !p.Recursive[funcIdx(t, p, "A.f")] {
		t.Error("direct self-call not flagged recursive")
	}
}
