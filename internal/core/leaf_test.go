package core_test

import (
	"testing"

	"cormi/internal/apps/lu"
	"cormi/internal/apps/micro"
	"cormi/internal/core"
)

// wantLeaf compiles src and holds each named call site to its leaf
// verdict.
func wantLeaf(t *testing.T, src string, want map[string]bool) {
	t.Helper()
	res, err := core.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for name, leaf := range want {
		si := res.SiteByName(name)
		if si == nil {
			t.Errorf("no call site %s", name)
			continue
		}
		if si.Leaf != leaf {
			t.Errorf("%s: Leaf = %v, want %v", name, si.Leaf, leaf)
		}
	}
}

// The paper's micro-benchmarks and LU's fetches, flush and barrier
// call methods that reach no remote call.
func TestLeafMeasuredSketches(t *testing.T) {
	wantLeaf(t, micro.LinkedListSrc, map[string]bool{"Foo.benchmark.1": true})
	wantLeaf(t, micro.ArrayBenchSrc, map[string]bool{"ArrayBench.benchmark.1": true})
	wantLeaf(t, lu.Src, map[string]bool{
		"Driver.interior.1": true, "Driver.interior.2": true, "Driver.perimeter.1": true,
		"Driver.main.2": true, "Driver.main.3": true, "Driver.main.4": true,
	})
}

// A chain of hops: the first hop's method calls the next hop, so only
// the last link is a leaf.
const hopChainSrc = `
remote class Hop {
	int step(int x) {
		Hop next = new Hop();
		return next.last(x + 1);
	}
	int last(int x) { return x + 1; }
}
class Main {
	static int main() {
		Hop h = new Hop();
		return h.step(1);
	}
}
`

func TestLeafChainIsNotLeaf(t *testing.T) {
	wantLeaf(t, hopChainSrc, map[string]bool{"Main.main.1": false, "Hop.step.1": true})
}

// The remote call hides behind local calls: a static helper, a call
// through this, and a pair of mutually recursive methods, ping and
// pong, of which only ping calls on; viaPong reaches it through pong.
const localReachSrc = `
remote class Sink {
	void put(int x) { }
}
remote class Server {
	void direct(int x) {
		Sink s = new Sink();
		s.put(x);
	}
	void viaStatic(int x) { Util.send(x); }
	void viaThis(int x) { this.helper(x); }
	void helper(int x) { Util.send(x); }
	void viaCycle(int x) { Util.ping(x); }
	void viaPong(int x) { Util.pong(x); }
	void pure(int x) { int y = Util.square(x); }
}
class Util {
	static void send(int x) {
		Sink s = new Sink();
		s.put(x);
	}
	static void ping(int x) {
		if (x > 0) { Util.pong(x - 1); }
		Util.send(x);
	}
	static void pong(int x) {
		Util.ping(x);
	}
	static int square(int x) {
		if (x > 100) { return Util.square(x - 1); }
		return x * x;
	}
}
class Main {
	static void main() {
		Server v = new Server();
		v.direct(1);
		v.viaStatic(1);
		v.viaThis(1);
		v.viaCycle(1);
		v.viaPong(1);
		v.pure(1);
	}
}
`

func TestLeafLocalCallsReachRemote(t *testing.T) {
	wantLeaf(t, localReachSrc, map[string]bool{
		"Main.main.1":     false, // direct
		"Main.main.2":     false, // viaStatic
		"Main.main.3":     false, // viaThis
		"Main.main.4":     false, // viaCycle
		"Main.main.5":     false, // viaPong
		"Main.main.6":     true,  // pure: a recursive helper without remote calls
		"Server.direct.1": true, "Util.send.1": true,
	})
}

// A remote call dispatches on the receiver's runtime class, which may
// be any subclass of the callee's declaring class: an override below
// the callee decides the verdict, whatever the receiver was seen to
// hold, and one above it or in an unrelated class does not.
const overrideSrc = `
remote class Sink {
	void put(int x) { }
}
remote class Base {
	void work(int x) { }
	void send(int x) {
		Sink s = new Sink();
		s.put(x);
	}
}
remote class Forwarder extends Base {
	void work(int x) {
		Sink s = new Sink();
		s.put(x);
	}
}
remote class Quiet extends Base {
	void send(int x) { }
}
remote class Other {
	void work(int x) {
		Sink s = new Sink();
		s.put(x);
	}
	void rest(int x) { }
}
class Main {
	static void main() {
		Base plain = new Base();
		plain.work(1);
		Quiet q = new Quiet();
		q.send(2);
		Other o = new Other();
		o.rest(3);
	}
}
`

func TestLeafOverrideReachesRemote(t *testing.T) {
	wantLeaf(t, overrideSrc, map[string]bool{
		"Main.main.1": false, // a Forwarder may arrive
		"Main.main.2": true,  // Quiet.send has no override; Base.send is above it
		"Main.main.3": true,  // Other.work is no candidate for rest
	})
}

// fwdChainSrc forwards through an override: the site inside Fwd.work
// names Base.work, which is empty, and its receiver comes from a field
// the analysis never saw written, so nothing but the class hierarchy
// says a Fwd may answer it.
const fwdChainSrc = `
remote class Base {
	Base next;
	int work(int d) { return 0; }
}
remote class Fwd extends Base {
	int work(int d) { return next.work(d - 1) + 1; }
}
class Main {
	static int main() {
		Base b = new Fwd();
		return b.work(2);
	}
}
`

func TestLeafOverrideThroughField(t *testing.T) {
	wantLeaf(t, fwdChainSrc, map[string]bool{"Main.main.1": false, "Fwd.work.1": false})
}
