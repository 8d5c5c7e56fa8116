package interp

import (
	"slices"
	"strings"
	"testing"

	"cormi/internal/core"
	"cormi/internal/model"
	"cormi/internal/rmi"
	"cormi/internal/trace"
)

// run compiles src and interprets Class.main on a fresh cluster at the
// given optimization level, returning main's value and the cluster.
func run(t *testing.T, src, class string, level rmi.OptLevel, nodes int) (model.Value, *rmi.Cluster) {
	t.Helper()
	cluster := rmi.New(nodes)
	t.Cleanup(cluster.Close)
	res, err := core.CompileInto(src, cluster.Registry)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m, err := New(res, cluster, level)
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	v, err := m.RunMain(class)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return v, cluster
}

// TestNestedRemoteCallJoinsTrace: a remote method that makes a remote
// call of its own issues it from the call it serves, so one sampled
// root call yields one trace, its nested hop one deeper. Objects are
// placed round robin over the three nodes: the unused Leaf lands on
// node 0, Mid on node 1 and the Leaf that Mid.step creates on node 2.
func TestNestedRemoteCallJoinsTrace(t *testing.T) {
	tr := trace.New(trace.Config{RingSize: 64, SampleEvery: 1})
	cluster := rmi.New(3, rmi.WithTracer(tr))
	t.Cleanup(cluster.Close)
	res, err := core.CompileInto(`
remote class Leaf {
	int inc(int x) { return x + 1; }
}
remote class Mid {
	int step(int x) {
		Leaf l = new Leaf();
		return l.inc(x);
	}
}
class Main {
	static int main() {
		Leaf local = new Leaf();
		Mid m = new Mid();
		return m.step(41);
	}
}`, cluster.Registry)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(res, cluster, rmi.LevelSite)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := m.RunMain("Main"); err != nil || v.I != 42 {
		t.Fatalf("main = %v, %v; want 42", v, err)
	}
	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("%d traces, want one: the nested call must join its caller's trace", len(traces))
	}
	hops := map[trace.Kind][]uint8{}
	for _, sp := range tr.TraceSpans(traces[0].TraceID) {
		hops[sp.Kind] = append(hops[sp.Kind], sp.Hop)
	}
	for kind, want := range map[trace.Kind][]uint8{trace.KindCaller: {0, 1}, trace.KindCallee: {1, 2}} {
		got := hops[kind]
		if slices.Sort(got); !slices.Equal(got, want) {
			t.Errorf("%v span hops %v, want %v", kind, got, want)
		}
	}
}

func TestArithmeticAndControlFlow(t *testing.T) {
	v, _ := run(t, `
class Main {
	static int main() {
		int s = 0;
		for (int i = 1; i <= 10; i = i + 1) {
			if (i % 2 == 0) { s = s + i; } else { s = s - 1; }
		}
		int j = 0;
		while (j < 3) { j = j + 1; s = s * 2; }
		return s;
	}
}`, "Main", rmi.LevelSiteReuseCycle, 1)
	// sum evens 2..10 = 30, minus 5 odds = 25, *8 = 200.
	if v.I != 200 {
		t.Fatalf("main = %v", v)
	}
}

func TestObjectsFieldsAndDoubles(t *testing.T) {
	v, _ := run(t, `
class Point { double x; double y; }
class Main {
	static double main() {
		Point p = new Point();
		p.x = 3;
		p.y = 4.0;
		return p.x * p.x + p.y * p.y;
	}
}`, "Main", rmi.LevelSiteReuseCycle, 1)
	if v.D != 25 {
		t.Fatalf("main = %v", v)
	}
}

func TestArraysIncludingMultiDim(t *testing.T) {
	v, _ := run(t, `
class Main {
	static double main() {
		double[][] m = new double[3][4];
		for (int i = 0; i < m.length; i = i + 1) {
			for (int j = 0; j < m[i].length; j = j + 1) {
				m[i][j] = i * 10 + j;
			}
		}
		double s = 0.0;
		for (int i = 0; i < 3; i = i + 1) {
			for (int j = 0; j < 4; j = j + 1) {
				s = s + m[i][j];
			}
		}
		return s;
	}
}`, "Main", rmi.LevelSiteReuseCycle, 1)
	// sum of i*10+j over 3x4 = 10*(0+1+2)*4 + (0+1+2+3)*3 = 120+18.
	if v.D != 138 {
		t.Fatalf("main = %v", v)
	}
}

func TestMultiDimArrayRowsAreDistinct(t *testing.T) {
	// The analysis-era lowering shared one inner array; the executable
	// lowering must fill every slot with a fresh row.
	v, _ := run(t, `
class Main {
	static double main() {
		double[][] m = new double[4][4];
		m[0][0] = 7.0;
		return m[1][0] + m[2][0] + m[3][0];
	}
}`, "Main", rmi.LevelSiteReuseCycle, 1)
	if v.D != 0 {
		t.Fatalf("rows share storage: %v", v)
	}
}

func TestConstructorsAndLinkedList(t *testing.T) {
	v, _ := run(t, `
class LinkedList {
	int v;
	LinkedList Next;
	LinkedList(LinkedList n, int x) { this.Next = n; this.v = x; }
}
class Main {
	static int main() {
		LinkedList head = null;
		for (int i = 0; i < 10; i = i + 1) {
			head = new LinkedList(head, i);
		}
		int s = 0;
		while (head != null) {
			s = s + head.v;
			head = head.Next;
		}
		return s;
	}
}`, "Main", rmi.LevelSiteReuseCycle, 1)
	if v.I != 45 {
		t.Fatalf("main = %v", v)
	}
}

func TestStaticsAndStrings(t *testing.T) {
	v, _ := run(t, `
class Main {
	static int counter;
	static void bump() { Main.counter = Main.counter + 1; }
	static int main() {
		for (int i = 0; i < 5; i = i + 1) { Main.bump(); }
		String s = "hello";
		return counter + s.length();
	}
}`, "Main", rmi.LevelSiteReuseCycle, 1)
	if v.I != 10 {
		t.Fatalf("main = %v", v)
	}
}

func TestRemoteInvocationEndToEnd(t *testing.T) {
	// The Figure 12 array benchmark, actually executed: the remote
	// send sums the matrix it received.
	src := `
remote class ArrayBench {
	double sum;
	double send(double[][] arr) {
		double s = 0.0;
		for (int i = 0; i < arr.length; i = i + 1) {
			for (int j = 0; j < arr[i].length; j = j + 1) {
				s = s + arr[i][j];
			}
		}
		this.sum = s;
		return s;
	}
}
class Main {
	static double main() {
		double[][] arr = new double[16][16];
		for (int i = 0; i < 16; i = i + 1) {
			for (int j = 0; j < 16; j = j + 1) {
				arr[i][j] = i + j;
			}
		}
		ArrayBench f = new ArrayBench();
		double total = 0.0;
		for (int k = 0; k < 5; k = k + 1) {
			total = total + f.send(arr);
		}
		return total;
	}
}`
	want := 0.0
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			want += float64(i + j)
		}
	}
	for _, level := range rmi.AllLevels {
		v, cluster := run(t, src, "Main", level, 2)
		if v.D != 5*want {
			t.Fatalf("%v: main = %v, want %v", level, v.D, 5*want)
		}
		s := cluster.Counters.Snapshot()
		if s.RemoteRPCs+s.LocalRPCs != 5 {
			t.Fatalf("%v: rpcs = %d", level, s.RemoteRPCs+s.LocalRPCs)
		}
	}
}

func TestRemoteObjectGraphArgument(t *testing.T) {
	// A linked list crosses the wire into a remote method, which
	// mutates its copy; the caller's list must be unaffected
	// (cloning/serialization semantics).
	v, _ := run(t, `
class Node { int v; Node next; Node(Node n, int x) { this.next = n; this.v = x; } }
remote class Acc {
	int sum(Node head) {
		int s = 0;
		Node cur = head;
		while (cur != null) {
			s = s + cur.v;
			cur.v = 0;
			cur = cur.next;
		}
		return s;
	}
}
class Main {
	static int main() {
		Node head = null;
		for (int i = 1; i <= 4; i = i + 1) { head = new Node(head, i); }
		Acc a = new Acc();
		int first = a.sum(head);
		int second = a.sum(head);
		return first + second;
	}
}`, "Main", rmi.LevelSiteReuseCycle, 2)
	if v.I != 20 {
		t.Fatalf("mutation leaked across the RMI boundary: %v", v)
	}
}

func TestRemotePlacementRoundRobin(t *testing.T) {
	_, cluster := run(t, `
remote class W { int id() { return 1; } }
class Main {
	static int main() {
		int s = 0;
		W a = new W();
		W b = new W();
		W c = new W();
		s = s + a.id() + b.id() + c.id();
		return s;
	}
}`, "Main", rmi.LevelSite, 2)
	st := cluster.Counters.Snapshot()
	// Three instances over two nodes: at least one local, one remote.
	if st.RemoteRPCs == 0 || st.LocalRPCs == 0 {
		t.Fatalf("placement not distributed: %+v", st)
	}
}

func TestFigure3LoopProgramRuns(t *testing.T) {
	// The very program that motivated the tuple fix, executed.
	v, _ := run(t, `
class Obj { int x; }
remote class Foo {
	Obj foo(Obj a) {
		a.x = a.x + 1;
		return a;
	}
}
class Main {
	static int main() {
		Foo me = new Foo();
		Obj t = new Obj();
		for (int i = 0; i < 100; i = i + 1) {
			t = me.foo(t);
		}
		return t.x;
	}
}`, "Main", rmi.LevelSiteReuseCycle, 2)
	if v.I != 100 {
		t.Fatalf("loop result = %v", v)
	}
}

func TestHashCodeBuiltinDeterministic(t *testing.T) {
	v1, _ := run(t, `
class Main { static int main() { String s = "/index.html"; return s.hashCode(); } }`,
		"Main", rmi.LevelSite, 1)
	v2, _ := run(t, `
class Main { static int main() { String s = "/index.html"; return s.hashCode(); } }`,
		"Main", rmi.LevelSite, 1)
	if v1.I != v2.I {
		t.Fatal("hashCode not deterministic")
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct{ src, frag string }{
		{`class Main { static int main() { int[] a = new int[2]; return a[5]; } }`, "out of bounds"},
		{`class Main { static int main() { int x = 1; int y = 0; return x / y; } }`, "division by zero"},
		{`class P { int x; } class Main { static int main() { P p = null; return p.x; } }`, "null dereference"},
		{`class Main { static int main() { while (true) { int x = 1; } return 0; } }`, "step limit"},
	}
	for _, tc := range cases {
		cluster := rmi.New(1)
		res, err := core.CompileInto(tc.src, cluster.Registry)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		m, err := New(res, cluster, rmi.LevelSite)
		if err != nil {
			t.Fatal(err)
		}
		_, err = m.RunMain("Main")
		if err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Fatalf("want error containing %q, got %v", tc.frag, err)
		}
		cluster.Close()
	}
}

func TestNoMainError(t *testing.T) {
	cluster := rmi.New(1)
	defer cluster.Close()
	res, err := core.CompileInto(`class A { void f() { } }`, cluster.Registry)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(res, cluster, rmi.LevelSite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunMain("A"); err == nil {
		t.Fatal("missing main accepted")
	}
	if _, err := m.RunMain("Nope"); err == nil {
		t.Fatal("missing class accepted")
	}
}
