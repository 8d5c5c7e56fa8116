package rmi

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"cormi/internal/balance"
	"cormi/internal/model"
	"cormi/internal/serial"
	"cormi/internal/testkit"
)

// Tests for the callee's launch path and the record lifetime: an
// executor call takes an invocation record from the node's spare list
// and is handed to a parked executor or to a new one, which returns
// the record once the reply is sent; a node-local call runs in a spare
// record too, returned once the result is cloned (dispatch.go,
// callsite.go's invokeLocal).

// intSite registers a LevelSite call site of method with one int
// argument and one int result.
func intSite(c *Cluster, name, method string) *CallSite {
	return c.MustNewCallSite(LevelSite, SiteSpec{
		Name: name, Method: method,
		ArgPlans: []*serial.Plan{intPlan(name)},
		RetPlans: []*serial.Plan{intPlan(name)},
	})
}

// goroutinesAtMost polls, as balance.Settled does, until no more than
// limit goroutines run, and returns the last count it read.
func goroutinesAtMost(limit int) int {
	g := runtime.NumGoroutine()
	for i := 0; i < 10_000 && g > limit; i++ {
		time.Sleep(time.Millisecond)
		g = runtime.NumGoroutine()
	}
	return g
}

// TestEchoSteadyStateAllocs pins the primitive echo — one int out, the
// same int back, the method returning its argument slice — at what is
// left of a remote call's allocations: the caller's result slice (1.00
// measured; 2.00 when each call allocated its record). Records come
// from the spare list, arguments decode into them, roots are made only
// for references, and executors are reused, so none of those may
// allocate per call.
func TestEchoSteadyStateAllocs(t *testing.T) {
	if testkit.Enabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	e := newEnv(t, 2)
	ref := e.c.Node(1).Export(echoService())
	avg := echoAllocs(t, intSite(e.c, "t.id.1", "id"), e.c.Node(0), ref)
	t.Logf("echo: %.2f allocs per invocation", avg)
	if avg > 1 {
		t.Fatalf("echo allocates %.2f per call, budget 1", avg)
	}
}

// TestLocalEchoSteadyStateAllocs is TestEchoSteadyStateAllocs on the
// serving node: the node-local call runs in a spare record and clones
// its argument into it, so all that is left is the cloned result.
func TestLocalEchoSteadyStateAllocs(t *testing.T) {
	if testkit.Enabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	e := newEnv(t, 1)
	ref := e.c.Node(0).Export(echoService())
	avg := echoAllocs(t, intSite(e.c, "t.id.1", "id"), e.c.Node(0), ref)
	t.Logf("local echo: %.2f allocs per invocation", avg)
	if avg > 1 {
		t.Fatalf("local echo allocates %.2f per call, budget 1", avg)
	}
}

// echoService answers "id" with its own argument slice.
func echoService() *Service {
	return &Service{Name: "Echo", Methods: map[string]Method{
		"id": func(_ *Call, args []model.Value) []model.Value { return args },
	}}
}

// echoAllocs warms up the echo of 7 from caller through cs, then
// returns what one call allocates.
func echoAllocs(t *testing.T, cs *CallSite, caller *Node, ref Ref) float64 {
	argv := []model.Value{model.Int(7)}
	invoke := func() {
		rets, err := cs.Invoke(caller, ref, argv)
		if err != nil || len(rets) != 1 || rets[0].I != 7 {
			t.Fatalf("echo: %v %v", rets, err)
		}
	}
	for i := 0; i < 50; i++ {
		invoke()
	}
	return testing.AllocsPerRun(300, invoke)
}

// TestLocalMethodReturnsItsArgs: a node-local method may answer in its
// own argument slice, which lives in the call's record. At every level
// the caller gets the argument back: the record is zeroed and reused
// only after the result is cloned out of it.
func TestLocalMethodReturnsItsArgs(t *testing.T) {
	e := newEnv(t, 1)
	ref := e.c.Node(0).Export(echoService())
	for _, level := range AllLevels {
		name := "t.id." + strconv.Itoa(int(level))
		cs := e.c.MustNewCallSite(level, SiteSpec{
			Name: name, Method: "id",
			ArgPlans: []*serial.Plan{intPlan(name)},
			RetPlans: []*serial.Plan{intPlan(name)},
		})
		for i := int64(1); i <= 3; i++ {
			rets, err := cs.Invoke(e.c.Node(0), ref, []model.Value{model.Int(i)})
			if err != nil || len(rets) != 1 || rets[0].I != i {
				t.Fatalf("%v: local echo of %d answered %v, %v", level, i, rets, err)
			}
		}
	}
}

// TestExecutorsParkUpToCap holds three times maxIdleExecutors calls in
// their method at once, so that many executors run, each in a record of
// its own: once all have entered, each method re-reads its argument and
// still finds its own. Once released, exactly maxIdleExecutors of them
// stay parked, and no more records than that wait on the spare list;
// Close wakes the parked ones, and after it no executor runs.
func TestExecutorsParkUpToCap(t *testing.T) {
	mark := balance.Take()
	c := New(2)
	defer c.Close()
	const calls = 3 * maxIdleExecutors
	var entered, finished sync.WaitGroup
	entered.Add(calls)
	gate := make(chan struct{})
	ref := c.Node(1).Export(&Service{Name: "Gate", Methods: map[string]Method{
		"hold": func(_ *Call, args []model.Value) []model.Value {
			mine := args[0].I
			entered.Done()
			<-gate
			if args[0].I != mine {
				t.Errorf("held call's argument %d became %d: its record was reused", mine, args[0].I)
			}
			return args
		},
	}})
	cs := intSite(c, "t.hold.1", "hold")
	base := runtime.NumGoroutine()

	finished.Add(calls)
	for i := 0; i < calls; i++ {
		go func(i int) {
			defer finished.Done()
			rets, err := cs.Invoke(c.Node(0), ref, []model.Value{model.Int(int64(i))})
			if err != nil || rets[0].I != int64(i) {
				t.Errorf("call %d: %v %v", i, rets, err)
			}
		}(i)
	}
	entered.Wait() // every call is in its method: calls executors run
	close(gate)
	finished.Wait()

	limit := base + maxIdleExecutors
	if g := goroutinesAtMost(limit); g > limit {
		t.Errorf("%d goroutines after the burst, want at most %d (baseline %d + %d parked)", g, limit, base, maxIdleExecutors)
	}
	// Exactly the cap park: the burst's first maxIdleExecutors to finish
	// stay, the rest exit. Close must then wake every one of them.
	idle := c.Node(1).idle.Load()
	for i := 0; i < 10_000 && idle < maxIdleExecutors; i++ {
		time.Sleep(time.Millisecond)
		idle = c.Node(1).idle.Load()
	}
	if idle != maxIdleExecutors {
		t.Errorf("%d executors parked, want the cap %d", idle, maxIdleExecutors)
	}
	if spare := len(c.Node(1).spare); spare > maxIdleExecutors {
		t.Errorf("%d records on the spare list, cap %d", spare, maxIdleExecutors)
	}
	c.Close()
	if err := mark.Settled(c.PendingCalls); err != nil {
		t.Fatal(err)
	}
}

// TestReentrantChainsExceedCap runs more concurrent chains than
// maxIdleExecutors of node 1 → node 0 → node 1, all held at the leaf
// until every chain reached it: node 1 then runs two executors per
// chain, which only starting a new executor when none is parked
// provides. Bounded executors would deadlock here.
func TestReentrantChainsExceedCap(t *testing.T) {
	mark := balance.Take()
	c := New(2)
	defer c.Close()
	const chains = 2*maxIdleExecutors + 1
	var atLeaf sync.WaitGroup
	atLeaf.Add(chains)
	gate := make(chan struct{})
	var outer, middle, leaf *CallSite
	var ref0, ref1 Ref
	ref1 = c.Node(1).Export(&Service{Name: "One", Methods: map[string]Method{
		"outer": func(call *Call, args []model.Value) []model.Value {
			rets, err := middle.Invoke(call, ref0, args)
			if err != nil {
				panic(err)
			}
			return rets
		},
		"leaf": func(_ *Call, args []model.Value) []model.Value {
			atLeaf.Done()
			<-gate
			return []model.Value{model.Int(args[0].I + 1)}
		},
	}})
	ref0 = c.Node(0).Export(&Service{Name: "Zero", Methods: map[string]Method{
		"middle": func(call *Call, args []model.Value) []model.Value {
			rets, err := leaf.Invoke(call, ref1, args)
			if err != nil {
				panic(err)
			}
			return rets
		},
	}})
	outer = intSite(c, "t.outer.1", "outer")
	middle = intSite(c, "t.middle.1", "middle")
	leaf = intSite(c, "t.leaf.1", "leaf")

	var finished sync.WaitGroup
	finished.Add(chains)
	for i := 0; i < chains; i++ {
		go func(i int) {
			defer finished.Done()
			rets, err := outer.Invoke(c.Node(0), ref1, []model.Value{model.Int(int64(i))})
			if err != nil || rets[0].I != int64(i)+1 {
				t.Errorf("chain %d: %v %v", i, rets, err)
			}
		}(i)
	}
	atLeaf.Wait()
	close(gate)
	finished.Wait()
	c.Close()
	if err := mark.Settled(c.PendingCalls); err != nil {
		t.Fatal(err)
	}
}

// goroutineID reads the running goroutine's ID from its stack header
// ("goroutine 17 [running]:").
func goroutineID() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// TestPanicKeepsExecutor: a method that panics answers with a remote
// error, and the executor it ran on parks again and serves the next
// call.
func TestPanicKeepsExecutor(t *testing.T) {
	e := newEnv(t, 2)
	var ran []uint64
	ref := e.c.Node(1).Export(&Service{Name: "Flaky", Methods: map[string]Method{
		"boom": func(_ *Call, _ []model.Value) []model.Value {
			ran = append(ran, goroutineID())
			panic("boom")
		},
		"ok": func(_ *Call, args []model.Value) []model.Value {
			ran = append(ran, goroutineID())
			return args
		},
	}})
	boom, ok := intSite(e.c, "t.boom.1", "boom"), intSite(e.c, "t.ok.1", "ok")
	callee := e.c.Node(1)
	if _, err := boom.Invoke(e.c.Node(0), ref, []model.Value{model.Int(1)}); err == nil {
		t.Fatal("panicking method returned no error")
	}
	// The call started the node's only executor; wait for it to park.
	for i := 0; i < 10_000 && callee.idle.Load() != 1; i++ {
		time.Sleep(time.Millisecond)
	}
	if idle := callee.idle.Load(); idle != 1 {
		t.Fatalf("%d executors parked after the panic, want 1", idle)
	}
	rets, err := ok.Invoke(e.c.Node(0), ref, []model.Value{model.Int(2)})
	if err != nil || rets[0].I != 2 {
		t.Fatalf("call after the panic: %v %v", rets, err)
	}
	if len(ran) != 2 || ran[0] != ran[1] {
		t.Fatalf("executor goroutines %v, want the panicked one reused", ran)
	}
}
