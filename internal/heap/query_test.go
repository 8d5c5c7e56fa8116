package heap

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"cormi/internal/ir"
)

func TestCloneSetOfAndReach(t *testing.T) {
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
	argNodes := a.PointsTo(site.Args[1])
	clones := a.CloneSetOf(ArgCtx(site.Callee), argNodes)
	if len(clones) != 1 {
		t.Fatalf("clones = %s", clones)
	}
	// Reach from the clone covers the mirrored child.
	reach := a.Reach(clones)
	if len(reach) != 2 {
		t.Fatalf("clone reach = %s", reach)
	}
	// An unrelated context yields nothing.
	if got := a.CloneSetOf("arg:Nothing.here", argNodes); len(got) != 0 {
		t.Fatalf("bogus ctx clones = %s", got)
	}
	// Node stringers mention clone provenance.
	for _, id := range clones {
		s := a.Node(id).String()
		if !strings.Contains(s, "clone-of") {
			t.Fatalf("clone node string %q", s)
		}
		if !a.Node(id).IsClone() {
			t.Fatal("IsClone false for clone")
		}
	}
	// DumpGraph over clones renders the physical provenance.
	dump := a.DumpGraph(clones)
	if !strings.Contains(dump, "clone via arg:W.take") {
		t.Fatalf("clone dump:\n%s", dump)
	}
}

func TestGlobalOfSingleField(t *testing.T) {
	a, p := analyze(t, `
class Data { }
class H {
	static Data d;
	static void set() { H.d = new Data(); }
}`)
	fd := p.Lang.Classes["H"].FieldByName("d")
	if fd == nil {
		t.Fatal("field missing")
	}
	if got := a.globals[fd]; len(got) != 1 {
		t.Fatalf("Global(d) = %s", got)
	}
}

func TestDiamondDistinctAllocationsNotFlagged(t *testing.T) {
	// The diamond-sharing case: the CLASS graph is a diamond (Top
	// reaches D via two fields), but each field holds its own
	// allocation, so the object graph is a tree. The check must not
	// trip — only repeated allocations require the cycle table, not
	// repeated classes.
	a, p := analyze(t, `
class D { }
class Mid { D d; }
class Top { Mid a; Mid b; }
remote class W {
	void take(Top t) { }
	static void go() {
		Top t = new Top();
		t.a = new Mid();
		t.b = new Mid();
		t.a.d = new D();
		t.b.d = new D();
		W w = new W();
		w.take(t);
	}
}`)
	sets := argPointsTo(a, p.RemoteSites[0])
	if w := a.CycleWitnessFrom(sets); w != nil {
		t.Fatalf("diamond over distinct allocations flagged: %v", w)
	}
	if a.MayCycleFrom(sets) {
		t.Fatal("MayCycleFrom disagrees with nil witness")
	}
}

func TestCycleWitnessKinds(t *testing.T) {
	// A genuinely shared single allocation is a DAG: witness kind
	// "shared" (identity preservation, not termination, is at stake).
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
	w := a.CycleWitnessFrom(argPointsTo(a, p.RemoteSites[0]))
	if w == nil || w.Kind != WitnessShared {
		t.Fatalf("shared leaf witness = %v, want kind %q", w, WitnessShared)
	}
	if len(w.FirstPath) == 0 || len(w.Path) == 0 ||
		!strings.HasPrefix(w.FirstPath[0], "root") || !strings.HasPrefix(w.Path[0], "root") {
		t.Fatalf("witness paths malformed: %v / %v", w.FirstPath, w.Path)
	}
	if strings.Join(w.FirstPath, "") == strings.Join(w.Path, "") {
		t.Fatalf("witness paths identical: %v", w.Path)
	}

	// A self-reference is a true back edge: kind "cycle", and the
	// repeat path names the field that closes the loop.
	a2, p2 := analyze(t, `
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
	w2 := a2.CycleWitnessFrom(argPointsTo(a2, p2.RemoteSites[0]))
	if w2 == nil || w2.Kind != WitnessCycle {
		t.Fatalf("self reference witness = %v, want kind %q", w2, WitnessCycle)
	}
	if got := strings.Join(w2.Path, ""); !strings.Contains(got, ".self") {
		t.Fatalf("cycle path %q does not name the closing field", got)
	}
	if w2.Alloc != a2.Nodes[w2.Node].Logical {
		t.Fatalf("witness alloc %d != node logical %d", w2.Alloc, a2.Nodes[w2.Node].Logical)
	}
}

// TestCycleWitnessPropertyRandomGraphs is the satellite property test:
// random binary trees of distinct allocations never trip the check;
// adding one extra edge trips it with a witness whose kind matches the
// graph shape (back edge to an ancestor-or-self → "cycle", second
// parent elsewhere → "shared") and whose repeated node is the target
// of that extra edge.
func TestCycleWitnessPropertyRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	type slot struct {
		from  int
		field string
	}
	for iter := 0; iter < 60; iter++ {
		k := 2 + rng.Intn(6)
		parent := make([]int, k)
		free := []slot{{0, "a"}, {0, "b"}}
		type edge struct {
			from  int
			field string
			to    int
		}
		var edges []edge
		for i := 1; i < k; i++ {
			j := rng.Intn(len(free))
			s := free[j]
			free = append(free[:j], free[j+1:]...)
			edges = append(edges, edge{s.from, s.field, i})
			parent[i] = s.from
			free = append(free, slot{i, "a"}, slot{i, "b"})
		}

		mutate := iter%2 == 1
		var extraTo int
		wantKind := ""
		if mutate {
			j := rng.Intn(len(free))
			s := free[j]
			extraTo = rng.Intn(k)
			edges = append(edges, edge{s.from, s.field, extraTo})
			// Kind prediction: extraTo ancestor-or-self of the edge
			// source means a back edge (cycle); otherwise a second
			// parent (shared).
			wantKind = WitnessShared
			for u := s.from; ; u = parent[u] {
				if u == extraTo {
					wantKind = WitnessCycle
					break
				}
				if u == 0 {
					break
				}
			}
		}

		var b strings.Builder
		b.WriteString("class N { N a; N b; }\nremote class W {\n\tvoid take(N x) { }\n\tstatic void go() {\n")
		for i := 0; i < k; i++ {
			fmt.Fprintf(&b, "\t\tN n%d = new N();\n", i)
		}
		for _, e := range edges {
			fmt.Fprintf(&b, "\t\tn%d.%s = n%d;\n", e.from, e.field, e.to)
		}
		b.WriteString("\t\tW w = new W();\n\t\tw.take(n0);\n\t}\n}\n")

		a, p := analyze(t, b.String())
		sets := argPointsTo(a, p.RemoteSites[0])
		w := a.CycleWitnessFrom(sets)
		if got := a.MayCycleFrom(sets); got != (w != nil) {
			t.Fatalf("iter %d: MayCycleFrom=%v but witness=%v", iter, got, w)
		}
		if !mutate {
			if w != nil {
				t.Fatalf("iter %d: tree flagged: %v\n%s", iter, w, b.String())
			}
			continue
		}
		if w == nil {
			t.Fatalf("iter %d: extra edge to n%d not flagged\n%s", iter, extraTo, b.String())
		}
		if w.Kind != wantKind {
			t.Fatalf("iter %d: witness kind %q, want %q (%v)\n%s", iter, w.Kind, wantKind, w, b.String())
		}
		// The repeated allocation must be the extra edge's target: map
		// node indices to NodeIDs via the N allocations in logical
		// (program) order.
		var nIDs []NodeID
		for _, in := range p.AllocSites {
			if in != nil && in.Op == ir.OpNew && in.Class != nil && in.Class.Name == "N" {
				if id, ok := a.allocNode[allocKey{in, MergedCtx}]; ok {
					nIDs = append(nIDs, id)
				}
			}
		}
		sort.Slice(nIDs, func(i, j int) bool {
			return a.Nodes[nIDs[i]].Logical < a.Nodes[nIDs[j]].Logical
		})
		if len(nIDs) != k {
			t.Fatalf("iter %d: found %d N allocations, want %d", iter, len(nIDs), k)
		}
		if w.Node != nIDs[extraTo] {
			t.Fatalf("iter %d: witness node %d (alloc %d), want n%d (node %d)\n%s",
				iter, w.Node, w.Alloc, extraTo, nIDs[extraTo], b.String())
		}
	}
}

func TestMayCycleEmptyRoots(t *testing.T) {
	a, _ := analyze(t, `class A { }`)
	if a.MayCycleFrom(nil) || a.MayCycleFrom([]NodeSet{{}}) {
		t.Fatal("empty roots flagged cyclic")
	}
}

func TestIterationsReported(t *testing.T) {
	a, _ := analyze(t, `
class A {
	static void f() {
		A x = new A();
	}
}`)
	if a.Iterations < 1 {
		t.Fatalf("iterations = %d", a.Iterations)
	}
}
