package core

import (
	"testing"

	"cormi/internal/model"
	"cormi/internal/serial"
	"cormi/internal/stats"
	"cormi/internal/testkit"
	"cormi/internal/wire"
)

func compileOpts(t *testing.T, src string, opts Options) *Result {
	t.Helper()
	r, err := CompileOpts(src, model.NewRegistry(), opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return r
}

const orderedListSrc = `
class LinkedList {
	int v;
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

func TestLinearRefinementClearsListVerdict(t *testing.T) {
	// Off (the paper's published behavior): flagged cyclic.
	r := compileOpts(t, orderedListSrc, Options{})
	if !r.SitesOfCallee("Foo.send")[0].MayCycle {
		t.Fatal("baseline should flag the list cyclic")
	}
	// On (the paper's future work): proven acyclic.
	r = compileOpts(t, orderedListSrc, Options{LinearListRefinement: true})
	si := r.SitesOfCallee("Foo.send")[0]
	if si.MayCycle {
		t.Fatal("constructor-ordered list should be proven acyclic")
	}
	if si.ArgPlans[0].NeedCycle {
		t.Fatal("plan still demands a cycle table")
	}
}

func TestLinearRefinementRejectsLateStores(t *testing.T) {
	// Next is reassigned outside the constructor: a ring becomes
	// possible, so the refinement must not apply.
	r := compileOpts(t, `
class LinkedList {
	LinkedList Next;
	LinkedList(LinkedList n) { this.Next = n; }
}
remote class Foo {
	void send(LinkedList l) { }
	static void benchmark() {
		LinkedList head = new LinkedList(null);
		LinkedList tail = new LinkedList(head);
		head.Next = tail;
		Foo f = new Foo();
		f.send(head);
	}
}`, Options{LinearListRefinement: true})
	if !r.SitesOfCallee("Foo.send")[0].MayCycle {
		t.Fatal("field store outside the constructor must keep cycle detection")
	}
}

func TestLinearRefinementRejectsCtorSelfStore(t *testing.T) {
	// The constructor stores something that is not a parameter (here:
	// this itself) — Figure 9 in constructor clothing.
	r := compileOpts(t, `
class LinkedList {
	LinkedList Next;
	LinkedList() { this.Next = this; }
}
remote class Foo {
	void send(LinkedList l) { }
	static void benchmark() {
		LinkedList head = new LinkedList();
		Foo f = new Foo();
		f.send(head);
	}
}`, Options{LinearListRefinement: true})
	if !r.SitesOfCallee("Foo.send")[0].MayCycle {
		t.Fatal("self-store in constructor must keep cycle detection")
	}
}

func TestLinearRefinementRejectsTwoRefArgs(t *testing.T) {
	// Two list arguments may share a suffix (Figure 8 with lists):
	// dropping the table would duplicate the shared tail.
	r := compileOpts(t, `
class LinkedList {
	LinkedList Next;
	LinkedList(LinkedList n) { this.Next = n; }
}
remote class Foo {
	void send2(LinkedList a, LinkedList b) { }
	static void benchmark() {
		LinkedList shared = new LinkedList(null);
		LinkedList a = new LinkedList(shared);
		LinkedList b = new LinkedList(shared);
		Foo f = new Foo();
		f.send2(a, b);
	}
}`, Options{LinearListRefinement: true})
	if !r.SitesOfCallee("Foo.send2")[0].MayCycle {
		t.Fatal("two reference arguments must keep cycle detection")
	}
}

func TestLinearRefinementRejectsTwoRefFields(t *testing.T) {
	// A binary tree node could share subtrees; only single-chain
	// classes qualify.
	r := compileOpts(t, `
class Tree {
	Tree l;
	Tree r;
	Tree(Tree a, Tree b) { this.l = a; this.r = b; }
}
remote class Foo {
	void send(Tree t) { }
	static void benchmark() {
		Tree leaf = new Tree(null, null);
		Tree root = new Tree(leaf, leaf);
		Foo f = new Foo();
		f.send(root);
	}
}`, Options{LinearListRefinement: true})
	if !r.SitesOfCallee("Foo.send")[0].MayCycle {
		t.Fatal("two reference fields must keep cycle detection")
	}
}

func TestLinearRefinementRoundTripsCorrectly(t *testing.T) {
	// End to end: serialize a 50-node list with the refined plan (no
	// cycle table at all) and verify the graph arrives intact.
	r := compileOpts(t, orderedListSrc, Options{LinearListRefinement: true})
	si := r.SitesOfCallee("Foo.send")[0]
	plan := si.ArgPlans[0]
	nodeClass, _ := r.ModelClass("LinkedList")
	var head *model.Object
	for i := 0; i < 50; i++ {
		x := model.New(nodeClass)
		x.Set("v", model.Int(int64(i)))
		x.Set("Next", model.Ref(head))
		head = x
	}
	var c stats.Counters
	cfg := serial.Config{Mode: serial.ModeSite, CycleElim: true}
	m := wire.NewMessage(0)
	if _, err := serial.WriteValues(m, []model.Value{model.Ref(head)}, []*serial.Plan{plan}, cfg, &c); err != nil {
		t.Fatal(err)
	}
	if s := c.Snapshot(); s.CycleTables != 0 || s.CycleLookups != 0 {
		t.Fatalf("refined list still paid cycle work: %+v", s)
	}
	got, _, _, err := serial.ReadValuesScratch(wire.FromBytes(m.Bytes()), r.Registry, 1, []*serial.Plan{plan}, cfg, nil, nil, &c)
	if err != nil {
		t.Fatal(err)
	}
	if !testkit.DeepEqual(head, got[0].O) {
		t.Fatal("refined round trip mismatch")
	}
}

func TestLinearRefinementOnReturnValue(t *testing.T) {
	r := compileOpts(t, `
class LinkedList {
	LinkedList Next;
	LinkedList(LinkedList n) { this.Next = n; }
}
remote class Maker {
	LinkedList make(int n) {
		LinkedList head = null;
		for (int i = 0; i < n; i = i + 1) {
			head = new LinkedList(head);
		}
		return head;
	}
}
class Main {
	static void main() {
		Maker m = new Maker();
		LinkedList l = m.make(10);
		LinkedList use = l.Next;
	}
}`, Options{LinearListRefinement: true})
	si := r.SitesOfCallee("Maker.make")[0]
	if si.RetMayCycle {
		t.Fatal("returned ordered list should be proven acyclic")
	}
}
