package rmi

import (
	"strings"
	"sync"
	"testing"
	"time"

	"cormi/internal/balance"
	"cormi/internal/model"
	"cormi/internal/serial"
	"cormi/internal/testkit"
)

// Tests for leaf call sites, which the callee runs as upcalls on its
// receive loop in the node's one reusable invocation record
// (dispatch.go's handleCall).

// leafSite is intSite with the compiler's leaf verdict set.
func leafSite(c *Cluster, name, method string) *CallSite {
	return c.MustNewCallSite(LevelSite, SiteSpec{
		Name: name, Method: method,
		ArgPlans: []*serial.Plan{intPlan(name)},
		RetPlans: []*serial.Plan{intPlan(name)},
		Leaf:     true,
	})
}

// TestLeafEchoSteadyStateAllocs is TestEchoSteadyStateAllocs through a
// leaf site: the upcall reuses the loop's record and starts no
// executor, so all that is left is the caller's result slice.
func TestLeafEchoSteadyStateAllocs(t *testing.T) {
	if testkit.Enabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	e := newEnv(t, 2)
	ref := e.c.Node(1).Export(echoService())
	avg := echoAllocs(t, leafSite(e.c, "t.id.1", "id"), e.c.Node(0), ref)
	t.Logf("leaf echo: %.2f allocs per invocation", avg)
	if avg > 1 {
		t.Fatalf("leaf echo allocates %.2f per call, budget 1", avg)
	}
}

// TestLeafRunsOnReceiveLoop: every call through a leaf site runs on the
// same goroutine, and the callee never starts an executor for them.
func TestLeafRunsOnReceiveLoop(t *testing.T) {
	e := newEnv(t, 2)
	var ran []uint64
	ref := e.c.Node(1).Export(&Service{Name: "Echo", Methods: map[string]Method{
		"id": func(_ *Call, args []model.Value) []model.Value {
			ran = append(ran, goroutineID())
			return args
		},
	}})
	cs := leafSite(e.c, "t.id.1", "id")
	for i := int64(0); i < 3; i++ {
		rets, err := cs.Invoke(e.c.Node(0), ref, []model.Value{model.Int(i)})
		if err != nil || rets[0].I != i {
			t.Fatalf("call %d: %v %v", i, rets, err)
		}
	}
	if len(ran) != 3 || ran[0] != ran[1] || ran[1] != ran[2] {
		t.Errorf("leaf calls ran on goroutines %v, want one", ran)
	}
	if idle := e.c.Node(1).idle.Load(); idle != 0 {
		t.Errorf("%d executors parked after leaf calls only, want 0", idle)
	}
	e.c.Close() // the loop zeroes the record after sending the reply
	if up := e.c.Node(1).up; up.call.Site != nil || up.args != nil || up.method != nil {
		t.Errorf("upcall record not zeroed after the reply: %+v", up)
	}
}

// TestUpcallThatBlocksFailsLoudly: a leaf method whose body issues a
// nested call through its *Call gets ErrUpcallBlocked as a remote
// exception instead of holding the loop that must deliver its reply;
// the node keeps serving, and Close balances.
func TestUpcallThatBlocksFailsLoudly(t *testing.T) {
	mark := balance.Take()
	c := New(2)
	var inner *CallSite
	var ref0 Ref
	ref0 = c.Node(0).Export(&Service{Name: "Zero", Methods: map[string]Method{
		"inner": func(_ *Call, args []model.Value) []model.Value { return args },
	}})
	ref1 := c.Node(1).Export(&Service{Name: "One", Methods: map[string]Method{
		"nest": func(call *Call, args []model.Value) []model.Value {
			rets, err := inner.Invoke(call, ref0, args)
			if err != nil {
				panic(err)
			}
			return rets
		},
		"id": func(_ *Call, args []model.Value) []model.Value { return args },
	}})
	inner = intSite(c, "t.inner.1", "inner")
	_, err := leafSite(c, "t.nest.1", "nest").Invoke(c.Node(0), ref1, []model.Value{model.Int(1)})
	if err == nil || !strings.Contains(err.Error(), ErrUpcallBlocked.Error()) {
		t.Errorf("err = %v, want the remote %q", err, ErrUpcallBlocked)
	}
	// The same body through a site without the leaf verdict runs on an
	// executor, where nesting is allowed.
	rets, err := intSite(c, "t.nest.2", "nest").Invoke(c.Node(0), ref1, []model.Value{model.Int(5)})
	if err != nil || rets[0].I != 5 {
		t.Errorf("nested call from an executor: %v %v", rets, err)
	}
	rets, err = leafSite(c, "t.id.1", "id").Invoke(c.Node(0), ref1, []model.Value{model.Int(9)})
	if err != nil || rets[0].I != 9 {
		t.Errorf("leaf call after the failed upcall: %v %v", rets, err)
	}
	c.Close()
	if err := mark.Settled(c.PendingCalls); err != nil {
		t.Fatal(err)
	}
}

// TestBarrierLeafSiteRunsOnExecutor: the compiled barrier site is a
// leaf (its sketch is an empty method), but the barrier's body waits
// for the other parties, whose calls arrive on the same receive loop.
// The service is never upcalled, so both parties are released; an
// upcalled first party would hold the loop until the deadline.
func TestBarrierLeafSiteRunsOnExecutor(t *testing.T) {
	mark := balance.Take()
	c := New(3, WithCallPolicy(CallPolicy{Timeout: 10 * time.Second}))
	ref := c.Node(2).Export(NewBarrierService(2))
	cs := c.MustNewCallSite(LevelSite, SiteSpec{Name: "t.await.1", Method: BarrierMethod, IgnoreRet: true, Leaf: true})
	var wg sync.WaitGroup
	for party := 0; party < 2; party++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cs.Invoke(c.Node(party), ref, nil); err != nil {
				t.Errorf("party %d: %v", party, err)
			}
		}()
	}
	wg.Wait()
	c.Close()
	if err := mark.Settled(c.PendingCalls); err != nil {
		t.Fatal(err)
	}
}

// TestUpcallRecordNeverBacksRecycledSlice: a site that recycles its
// argument slice (§3.3, every argument a reusable reference) must not
// decode into the loop's reusable record, or the recycled slice would
// alias the record that the next upcall decodes into. Here a local
// call at such a site, on the serving node, runs while an upcall of
// another site holds its arguments; it must not overwrite them.
func TestUpcallRecordNeverBacksRecycledSlice(t *testing.T) {
	e := newEnv(t, 2)
	entered, gate := make(chan struct{}), make(chan struct{})
	ref := e.c.Node(1).Export(&Service{Name: "S", Methods: map[string]Method{
		"keep": func(_ *Call, _ []model.Value) []model.Value { return nil },
		"hold": func(_ *Call, args []model.Value) []model.Value {
			close(entered)
			<-gate
			return args
		},
	}})
	keep := e.c.MustNewCallSite(LevelSiteReuse, SiteSpec{
		Name: "t.keep.1", Method: "keep", IgnoreRet: true, Leaf: true,
		ArgPlans: []*serial.Plan{e.listPlan("t.keep.1", true, true)},
	})
	hold := leafSite(e.c, "t.hold.1", "hold")
	list := []model.Value{model.Ref(e.makeList(3))}
	// A remote call leaves keep's recycled slice in node 1's cache.
	if _, err := keep.Invoke(e.c.Node(0), ref, list); err != nil {
		t.Fatal(err)
	}
	done := make(chan []model.Value)
	go func() {
		rets, err := hold.Invoke(e.c.Node(0), ref, []model.Value{model.Int(42)})
		if err != nil {
			t.Error(err)
		}
		done <- rets
	}()
	<-entered
	// A node-local call decodes into that cached slice.
	if _, err := keep.Invoke(e.c.Node(1), ref, list); err != nil {
		t.Fatal(err)
	}
	close(gate)
	if rets := <-done; len(rets) != 1 || rets[0].I != 42 {
		t.Fatalf("held upcall answered %v, want its own argument 42", rets)
	}
}
