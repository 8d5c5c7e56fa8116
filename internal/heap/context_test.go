package heap

import (
	"fmt"
	"testing"

	"cormi/internal/ir"
	"cormi/internal/lang"
)

func analyzeOpts(t *testing.T, src string, opts Options) (*Analysis, *ir.Program) {
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
	return AnalyzeOpts(p, opts), p
}

func funcByName(t *testing.T, p *ir.Program, name string) *ir.Func {
	t.Helper()
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("no function %s", name)
	return nil
}

func remoteSites(p *ir.Program, callee string) []*ir.Instr {
	var out []*ir.Instr
	for _, s := range p.RemoteSites {
		if s != nil && s.Callee.QualifiedName() == callee {
			out = append(out, s)
		}
	}
	return out
}

// sharedHelperSrc is the shared-constructor shape: mk is called with
// two distinct leaves at remote site 1 and with the same leaf twice at
// remote site 2.
const sharedHelperSrc = `
class Leaf { int v; }
class Pair { Leaf l; Leaf r; }
remote class Sink {
	int take(Pair p) { return p.l.v + p.r.v; }
}
class Main {
	static Pair mk(Leaf a, Leaf b) {
		Pair p = new Pair();
		p.l = a;
		p.r = b;
		return p;
	}
	static int main() {
		Sink s = new Sink();
		Leaf x = new Leaf();
		Leaf y = new Leaf();
		Leaf z = new Leaf();
		int u = s.take(Main.mk(x, y));
		int w = s.take(Main.mk(z, z));
		return u + w;
	}
}`

func TestDedicatedContextPerCallSite(t *testing.T) {
	a, p := analyzeOpts(t, sharedHelperSrc, DefaultOptions())
	mk := funcByName(t, p, "Main.mk")
	ctxs := a.Contexts(mk)
	if len(ctxs) != 2 {
		t.Fatalf("mk analyzed in %d contexts %v, want 2 dedicated", len(ctxs), ctxs)
	}
	for _, c := range ctxs {
		if c == MergedCtx {
			t.Fatalf("mk's merged context is live (%v) though every caller has a dedicated context", ctxs)
		}
		if a.ctxSite[c] == nil {
			t.Errorf("dedicated context %d has no call site", c)
		}
		// Each per-site summary sees exactly one leaf per parameter.
		for _, param := range mk.Params {
			if got := len(a.PointsToIn(param, c)); got != 1 {
				t.Errorf("ctx %d: param %s points to %d nodes, want 1", c, param.Name, got)
			}
		}
	}
	// The merged view still unions the contexts (API compatibility).
	for _, param := range mk.Params {
		if got := len(a.PointsTo(param)); got != 2 {
			t.Errorf("merged view of param %s has %d nodes, want 2", param.Name, got)
		}
	}
}

func TestSharedHelperSeparatesCycleVerdicts(t *testing.T) {
	a, p := analyzeOpts(t, sharedHelperSrc, DefaultOptions())
	sites := remoteSites(p, "Sink.take")
	if len(sites) != 2 {
		t.Fatalf("got %d Sink.take sites, want 2", len(sites))
	}
	if a.MayCycleFrom(argPointsTo(a, sites[0])) {
		t.Error("site 1 (distinct leaves) flagged: one pessimistic caller poisoned the helper summary")
	}
	w := a.CycleWitnessFrom(argPointsTo(a, sites[1]))
	if w == nil {
		t.Fatal("site 2 (same leaf twice) not flagged")
	}
	if w.Kind != WitnessShared {
		t.Errorf("site 2 witness kind %q, want %q", w.Kind, WitnessShared)
	}

	// The insensitive baseline merges the callers and flags both.
	b, pb := analyzeOpts(t, sharedHelperSrc, Options{})
	for i, s := range remoteSites(pb, "Sink.take") {
		if !b.MayCycleFrom(argPointsTo(b, s)) {
			t.Errorf("baseline: site %d unexpectedly proved acyclic", i+1)
		}
	}
}

func TestRecursiveHelperFallsBackToMerged(t *testing.T) {
	src := `
class Cell { Cell next; }
class Main {
	static Cell build(int n) {
		Cell c = new Cell();
		if (n > 0) { c.next = Main.build(n - 1); }
		return c;
	}
	static Cell ping(int n) { return Main.pong(n); }
	static Cell pong(int n) { return Main.ping(n - 1); }
	static void main() {
		Cell a = Main.build(3);
		Cell b = Main.ping(2);
	}
}`
	a, p := analyzeOpts(t, src, DefaultOptions())
	for _, name := range []string{"Main.build", "Main.ping", "Main.pong"} {
		f := funcByName(t, p, name)
		ctxs := a.Contexts(f)
		if len(ctxs) != 1 || ctxs[0] != MergedCtx {
			t.Errorf("%s (recursive) analyzed in %v, want merged context only", name, ctxs)
		}
	}
	// The merged self-edge is still found (soundness of the fallback).
	build := funcByName(t, p, "Main.build")
	rets := ir.ReturnValues(build)
	if len(rets) == 0 {
		t.Fatal("build has no return values")
	}
	roots := NodeSet{}
	for _, rv := range rets {
		roots.AddAll(a.PointsTo(rv))
	}
	if !a.MayCycleFrom([]NodeSet{roots}) {
		t.Error("recursive list builder not flagged as may-cycle under the merged fallback")
	}
}

func TestContextBudgetOverflowMerges(t *testing.T) {
	// One helper, three call sites: with budget 2 the fan-in exceeds
	// the budget and every site binds the merged summary.
	src := `
class Cell { Cell next; }
class Main {
	static Cell id(Cell c) { return c; }
	static void main() {
		Cell a = Main.id(new Cell());
		Cell b = Main.id(new Cell());
		Cell c = Main.id(new Cell());
	}
}`
	opts := DefaultOptions()
	opts.ContextBudget = 2
	a, p := analyzeOpts(t, src, opts)
	id := funcByName(t, p, "Main.id")
	ctxs := a.Contexts(id)
	if len(ctxs) != 1 || ctxs[0] != MergedCtx {
		t.Fatalf("over-budget helper analyzed in %v, want merged context only", ctxs)
	}
	if got := len(a.PointsTo(id.Params[0])); got != 3 {
		t.Errorf("merged param sees %d nodes, want 3", got)
	}

	// Within budget, each site gets its own context.
	opts.ContextBudget = 3
	a, p = analyzeOpts(t, src, opts)
	id = funcByName(t, p, "Main.id")
	if got := len(a.Contexts(id)); got != 3 {
		t.Errorf("within-budget helper analyzed in %d contexts, want 3", got)
	}
}

func TestDiamondSharingThroughSharedCallee(t *testing.T) {
	// Genuine sharing must survive context separation: both pack calls
	// box the SAME leaf, and the two boxes travel in one message.
	src := `
class Leaf { int v; }
class Box { Leaf d; }
remote class Sink {
	int both(Box a, Box b) { return a.d.v + b.d.v; }
}
class Main {
	static Box pack(Leaf l) {
		Box b = new Box();
		b.d = l;
		return b;
	}
	static int main() {
		Sink s = new Sink();
		Leaf common = new Leaf();
		Box b1 = Main.pack(common);
		Box b2 = Main.pack(common);
		return s.both(b1, b2);
	}
}`
	a, p := analyzeOpts(t, src, DefaultOptions())
	sites := remoteSites(p, "Sink.both")
	if len(sites) != 1 {
		t.Fatalf("got %d sites, want 1", len(sites))
	}
	w := a.CycleWitnessFrom(argPointsTo(a, sites[0]))
	if w == nil {
		t.Fatal("diamond sharing through a shared callee was missed — unsound context separation")
	}
	if w.Kind != WitnessShared {
		t.Errorf("witness kind %q, want %q", w.Kind, WitnessShared)
	}
}

// TestAnalysisDeterministic pins node numbering and witness selection:
// repeated runs over a program with remote cloning and contexts must
// produce identical node tables and identical witnesses.
func TestAnalysisDeterministic(t *testing.T) {
	fingerprint := func() string {
		a, p := analyzeOpts(t, sharedHelperSrc, DefaultOptions())
		s := fmt.Sprintf("iters=%d kills=%d\n", a.Iterations, a.StrongKills)
		for _, n := range a.Nodes {
			s += n.String() + "\n"
			for _, id := range a.Reach(NodeSet{n.ID}).Sorted() {
				s += fmt.Sprintf(" reach %d", id)
			}
			s += "\n"
		}
		for _, site := range p.RemoteSites {
			if site == nil {
				continue
			}
			s += a.CycleWitnessFrom(argPointsTo(a, site)).String() + "\n"
		}
		return s
	}
	first := fingerprint()
	for i := 0; i < 5; i++ {
		if got := fingerprint(); got != first {
			t.Fatalf("run %d differs:\n--- first ---\n%s\n--- now ---\n%s", i+2, first, got)
		}
	}
}

func TestStatsReported(t *testing.T) {
	a, _ := analyzeOpts(t, sharedHelperSrc, DefaultOptions())
	st := a.AnalysisStats()
	if st.Contexts != 3 { // merged slot + two mk contexts
		t.Errorf("Contexts = %d, want 3", st.Contexts)
	}
	if st.Nodes != len(a.Nodes) || st.Nodes == 0 {
		t.Errorf("Nodes = %d, want %d (> 0)", st.Nodes, len(a.Nodes))
	}
	if st.PeakPointsTo < 1 {
		t.Errorf("PeakPointsTo = %d, want >= 1", st.PeakPointsTo)
	}
	if st.Iterations != a.Iterations {
		t.Errorf("Iterations = %d, want %d", st.Iterations, a.Iterations)
	}
}
