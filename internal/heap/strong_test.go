package heap

import (
	"testing"
)

// weakOnly is context sensitivity without strong updates — the control
// group for every kill test.
func weakOnly() Options {
	o := DefaultOptions()
	o.StrongUpdates = false
	return o
}

const selfLinkSrc = `
class Cell { Cell next; int v; }
remote class Sink {
	int send(Cell c) { return c.v; }
}
class Main {
	static int main() {
		Sink s = new Sink();
		Cell t = new Cell();
		t.next = t;
		t.next = null;
		return s.send(t);
	}
}`

func sendRoots(t *testing.T, src string, opts Options) (*Analysis, []NodeSet) {
	t.Helper()
	a, p := analyzeOpts(t, src, opts)
	sites := remoteSites(p, "Sink.send")
	if len(sites) != 1 {
		t.Fatalf("got %d Sink.send sites, want 1", len(sites))
	}
	return a, argPointsTo(a, sites[0])
}

func TestStrongUpdateKillsOverwrittenSelfLink(t *testing.T) {
	a, roots := sendRoots(t, selfLinkSrc, DefaultOptions())
	if a.StrongKills != 1 {
		t.Errorf("StrongKills = %d, want 1", a.StrongKills)
	}
	if w := a.CycleWitnessFrom(roots); w != nil {
		t.Errorf("severed self-link still flagged: %v", w)
	}

	b, broots := sendRoots(t, selfLinkSrc, weakOnly())
	if b.StrongKills != 0 {
		t.Errorf("weak analysis reports %d kills", b.StrongKills)
	}
	w := b.CycleWitnessFrom(broots)
	if w == nil {
		t.Fatal("weak updates must keep the self-link")
	}
	if w.Kind != WitnessCycle {
		t.Errorf("weak witness kind %q, want %q", w.Kind, WitnessCycle)
	}
}

func TestNoKillAcrossObserver(t *testing.T) {
	// A load between the two stores may observe the transient link
	// (here through an alias), so the kill must not fire.
	src := `
class Cell { Cell next; int v; }
remote class Sink {
	int send(Cell c) { return c.v; }
}
class Main {
	static int main() {
		Sink s = new Sink();
		Cell t = new Cell();
		t.next = t;
		Cell seen = t.next;
		t.next = null;
		seen.v = 9;
		return s.send(t);
	}
}`
	a, roots := sendRoots(t, src, DefaultOptions())
	if a.StrongKills != 0 {
		t.Errorf("StrongKills = %d, want 0 (a load observes the transient edge)", a.StrongKills)
	}
	if !a.MayCycleFrom(roots) {
		t.Error("observed self-link was dropped")
	}
}

func TestNoKillAcrossCall(t *testing.T) {
	// The callee might traverse the graph, so a call is an observer.
	src := `
class Cell { Cell next; int v; }
remote class Sink {
	int send(Cell c) { return c.v; }
}
class Main {
	static int peek(Cell c) { return c.next.v; }
	static int main() {
		Sink s = new Sink();
		Cell t = new Cell();
		t.next = t;
		int x = Main.peek(t);
		t.next = null;
		return s.send(t) + x;
	}
}`
	a, roots := sendRoots(t, src, DefaultOptions())
	if a.StrongKills != 0 {
		t.Errorf("StrongKills = %d, want 0 (a call may observe the edge)", a.StrongKills)
	}
	if !a.MayCycleFrom(roots) {
		t.Error("call-observed self-link was dropped")
	}
}

func TestNoKillAcrossBlockBoundary(t *testing.T) {
	// The overwriting store is conditional: the transient link survives
	// the else path, so same-block is a hard requirement.
	src := `
class Cell { Cell next; int v; }
remote class Sink {
	int send(Cell c) { return c.v; }
}
class Main {
	static int main() {
		Sink s = new Sink();
		Cell t = new Cell();
		t.next = t;
		if (t.v > 0) {
			t.next = null;
		}
		return s.send(t);
	}
}`
	a, roots := sendRoots(t, src, DefaultOptions())
	if a.StrongKills != 0 {
		t.Errorf("StrongKills = %d, want 0 (overwrite is conditional)", a.StrongKills)
	}
	if !a.MayCycleFrom(roots) {
		t.Error("conditionally-severed self-link was dropped")
	}
}

func TestNoKillThroughDifferentBase(t *testing.T) {
	// Same field, different base values: u's store says nothing about
	// t's edge even though both are singletons.
	src := `
class Cell { Cell next; int v; }
remote class Sink {
	int send(Cell c) { return c.v; }
}
class Main {
	static int main() {
		Sink s = new Sink();
		Cell t = new Cell();
		Cell u = new Cell();
		t.next = t;
		u.next = null;
		return s.send(t);
	}
}`
	a, roots := sendRoots(t, src, DefaultOptions())
	if a.StrongKills != 0 {
		t.Errorf("StrongKills = %d, want 0 (different base values)", a.StrongKills)
	}
	if !a.MayCycleFrom(roots) {
		t.Error("self-link dropped by an unrelated store")
	}
}

func TestNoKillOnSummaryNode(t *testing.T) {
	// The transient link lives in a remote method body: its allocation
	// is a merged-context summary node (the method has callers), so the
	// singleton/summary guard vetoes the kill.
	src := `
class Cell { Cell next; int v; }
remote class Sink {
	int send(Cell c) { return c.v; }
	int stir() {
		Cell t = new Cell();
		t.next = t;
		t.next = null;
		return t.v;
	}
}
class Main {
	static int main() {
		Sink s = new Sink();
		int x = s.stir();
		Cell u = new Cell();
		return s.send(u) + x;
	}
}`
	a, _ := analyzeOpts(t, src, DefaultOptions())
	if a.StrongKills != 0 {
		t.Errorf("StrongKills = %d, want 0 (summary-node base must not be strongly updated)", a.StrongKills)
	}
}

func TestNoKillOnArrayElements(t *testing.T) {
	// Element stores summarize every slot; overwriting arr[i] proves
	// nothing about arr[j], so index stores never participate.
	src := `
class Cell { Cell next; int v; }
remote class Sink {
	int send(Cell[] c) { return c.length; }
}
class Main {
	static int main() {
		Sink s = new Sink();
		Cell[] arr = new Cell[2];
		Cell t = new Cell();
		arr[0] = t;
		arr[1] = null;
		return s.send(arr);
	}
}`
	a, roots := sendRoots(t, src, DefaultOptions())
	if a.StrongKills != 0 {
		t.Errorf("StrongKills = %d, want 0 (array stores are weak)", a.StrongKills)
	}
	if len(roots) != 1 {
		t.Fatalf("got %d root sets, want 1", len(roots))
	}
	for _, id := range a.Reach(roots[0]) {
		if a.Nodes[id].Type.String() == "Cell" {
			return // t is still reachable through the array
		}
	}
	t.Error("array element edge was dropped")
}
