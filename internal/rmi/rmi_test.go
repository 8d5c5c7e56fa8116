package rmi

import (
	"fmt"
	"sync"
	"testing"

	"cormi/internal/model"
	"cormi/internal/serial"
	"cormi/internal/transport"
)

// testEnv bundles a cluster with a Node class and its list plan.
type testEnv struct {
	c    *Cluster
	node *model.Class
}

func newEnv(t testing.TB, nodes int, opts ...Option) *testEnv {
	t.Helper()
	c := New(nodes, opts...)
	t.Cleanup(c.Close)
	node := c.Registry.MustDefine("Node", nil, model.Field{Name: "v", Kind: model.FInt})
	node.Fields = append(node.Fields, model.Field{Name: "next", Kind: model.FRef, Class: node})
	return &testEnv{c: c, node: node}
}

func (e *testEnv) listPlan(site string, needCycle, reusable bool) *serial.Plan {
	np := &serial.NodePlan{Class: e.node}
	np.Steps = []serial.Step{
		{Op: serial.OpInt, Field: 0, FieldName: "v"},
		{Op: serial.OpRef, Field: 1, FieldName: "next", Target: np},
	}
	return &serial.Plan{Site: site, Kind: model.FRef, Root: np, NeedCycle: needCycle, Reusable: reusable}
}

func (e *testEnv) makeList(n int) *model.Object {
	var head *model.Object
	for i := n - 1; i >= 0; i-- {
		x := model.New(e.node)
		x.Set("v", model.Int(int64(i)))
		x.Set("next", model.Ref(head))
		head = x
	}
	return head
}

// sumService sums the v fields of a list and can also mutate the head.
func (e *testEnv) sumService() *Service {
	return &Service{
		Name: "Summer",
		Methods: map[string]Method{
			"sum": func(call *Call, args []model.Value) []model.Value {
				var s int64
				for o := args[0].O; o != nil; o = o.GetRef("next") {
					s += o.Get("v").I
				}
				return []model.Value{model.Int(s)}
			},
			"mutate": func(call *Call, args []model.Value) []model.Value {
				args[0].O.Set("v", model.Int(-1))
				return []model.Value{args[0]}
			},
		},
	}
}

func intPlan(site string) *serial.Plan { return serial.PrimitivePlan(site, model.FInt) }

func TestRemoteInvokeEcho(t *testing.T) {
	e := newEnv(t, 2)
	ref := e.c.Node(1).Export(e.sumService())
	cs := e.c.MustNewCallSite(LevelSite, SiteSpec{
		Name: "t.sum.1", Method: "sum",
		ArgPlans: []*serial.Plan{e.listPlan("t.sum.1", true, false)},
		RetPlans: []*serial.Plan{intPlan("t.sum.1")},
	})
	rets, err := cs.Invoke(e.c.Node(0), ref, []model.Value{model.Ref(e.makeList(10))})
	if err != nil {
		t.Fatal(err)
	}
	if rets[0].I != 45 {
		t.Fatalf("sum = %d, want 45", rets[0].I)
	}
	s := e.c.Counters.Snapshot()
	if s.RemoteRPCs != 1 || s.LocalRPCs != 0 {
		t.Fatalf("rpc counters: %+v", s)
	}
	if s.Messages != 2 {
		t.Fatalf("messages = %d, want 2 (call+reply)", s.Messages)
	}
}

func TestClassModeInvoke(t *testing.T) {
	e := newEnv(t, 2)
	ref := e.c.Node(1).Export(e.sumService())
	cs := e.c.MustNewCallSite(LevelClass, SiteSpec{
		Name: "t.sum.1", Method: "sum", NumRet: 1,
	})
	rets, err := cs.Invoke(e.c.Node(0), ref, []model.Value{model.Ref(e.makeList(4))})
	if err != nil {
		t.Fatal(err)
	}
	if rets[0].I != 6 {
		t.Fatalf("sum = %d", rets[0].I)
	}
	if e.c.Counters.Snapshot().SerializerCalls == 0 {
		t.Fatal("class mode should count dynamic serializer calls")
	}
}

func TestRemoteCallDeepCopies(t *testing.T) {
	e := newEnv(t, 2)
	ref := e.c.Node(1).Export(e.sumService())
	cs := e.c.MustNewCallSite(LevelSite, SiteSpec{
		Name: "t.mut.1", Method: "mutate",
		ArgPlans: []*serial.Plan{e.listPlan("t.mut.1", true, false)},
		RetPlans: []*serial.Plan{e.listPlan("t.mut.1r", true, false)},
	})
	head := e.makeList(3)
	rets, err := cs.Invoke(e.c.Node(0), ref, []model.Value{model.Ref(head)})
	if err != nil {
		t.Fatal(err)
	}
	if head.Get("v").I != 0 {
		t.Fatal("callee mutation leaked into the caller's object")
	}
	if rets[0].O.Get("v").I != -1 {
		t.Fatal("returned object does not carry the mutation")
	}
	if rets[0].O == head {
		t.Fatal("return value aliases the argument")
	}
}

func TestLocalCallClones(t *testing.T) {
	e := newEnv(t, 2)
	n0 := e.c.Node(0)
	ref := n0.Export(e.sumService())
	cs := e.c.MustNewCallSite(LevelSite, SiteSpec{
		Name: "t.mut.1", Method: "mutate",
		ArgPlans: []*serial.Plan{e.listPlan("t.mut.1", true, false)},
		RetPlans: []*serial.Plan{e.listPlan("t.mut.1r", true, false)},
	})
	head := e.makeList(3)
	rets, err := cs.Invoke(n0, ref, []model.Value{model.Ref(head)})
	if err != nil {
		t.Fatal(err)
	}
	if head.Get("v").I != 0 {
		t.Fatal("local call mutation leaked (cloning semantics violated)")
	}
	if rets[0].O.Get("v").I != -1 || rets[0].O == head {
		t.Fatal("local call return not a fresh clone")
	}
	s := e.c.Counters.Snapshot()
	if s.LocalRPCs != 1 || s.RemoteRPCs != 0 || s.Messages != 0 {
		t.Fatalf("local call counters: %+v", s)
	}
	if s.AllocObjects == 0 {
		t.Fatal("local cloning should count allocations")
	}
}

func TestIgnoreReturnSendsAck(t *testing.T) {
	e := newEnv(t, 2)
	ref := e.c.Node(1).Export(e.sumService())
	cs := e.c.MustNewCallSite(LevelSite, SiteSpec{
		Name: "t.sum.ack", Method: "sum", IgnoreRet: true,
		ArgPlans: []*serial.Plan{e.listPlan("t.sum.ack", true, false)},
	})
	rets, err := cs.Invoke(e.c.Node(0), ref, []model.Value{model.Ref(e.makeList(2))})
	if err != nil {
		t.Fatal(err)
	}
	if rets != nil {
		t.Fatal("ignored return produced values")
	}
	if e.c.Counters.Snapshot().AcksOnly != 1 {
		t.Fatal("AcksOnly not counted")
	}

	// The baseline serializes the return value even when unused.
	before := e.c.Counters.Snapshot()
	csBase := e.c.MustNewCallSite(LevelClass, SiteSpec{
		Name: "t.sum.ack0", Method: "sum", IgnoreRet: true, NumRet: 1,
	})
	if _, err := csBase.Invoke(e.c.Node(0), ref, []model.Value{model.Ref(e.makeList(2))}); err != nil {
		t.Fatal(err)
	}
	if e.c.Counters.Snapshot().Sub(before).AcksOnly != 0 {
		t.Fatal("class mode should not collapse returns to acks")
	}
}

func TestArgumentReuseAcrossInvocations(t *testing.T) {
	e := newEnv(t, 2)
	var mu sync.Mutex
	var seen []*model.Object
	svc := &Service{Name: "Rec", Methods: map[string]Method{
		"take": func(call *Call, args []model.Value) []model.Value {
			mu.Lock()
			seen = append(seen, args[0].O)
			mu.Unlock()
			return nil
		},
	}}
	ref := e.c.Node(1).Export(svc)
	cs := e.c.MustNewCallSite(LevelSiteReuseCycle, SiteSpec{
		Name: "t.take.1", Method: "take", IgnoreRet: true,
		ArgPlans: []*serial.Plan{e.listPlan("t.take.1", true, true)},
	})
	n0 := e.c.Node(0)
	for i := 0; i < 3; i++ {
		if _, err := cs.Invoke(n0, ref, []model.Value{model.Ref(e.makeList(10))}); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 3 {
		t.Fatalf("saw %d calls", len(seen))
	}
	if seen[0] != seen[1] || seen[1] != seen[2] {
		t.Fatal("argument graph not reused across invocations")
	}
	s := e.c.Counters.Snapshot()
	if s.AllocObjects != 10 || s.ReusedObjs != 20 {
		t.Fatalf("reuse stats: alloc=%d reused=%d", s.AllocObjects, s.ReusedObjs)
	}
}

func TestReturnValueReuseAtCaller(t *testing.T) {
	e := newEnv(t, 2)
	svc := &Service{Name: "Maker", Methods: map[string]Method{
		"make": func(call *Call, args []model.Value) []model.Value {
			head := e.makeList(int(args[0].I))
			return []model.Value{model.Ref(head)}
		},
	}}
	ref := e.c.Node(1).Export(svc)
	cs := e.c.MustNewCallSite(LevelSiteReuseCycle, SiteSpec{
		Name: "t.make.1", Method: "make",
		ArgPlans: []*serial.Plan{intPlan("t.make.1")},
		RetPlans: []*serial.Plan{e.listPlan("t.make.1r", true, true)},
	})
	n0 := e.c.Node(0)
	r1, err := cs.Invoke(n0, ref, []model.Value{model.Int(5)})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cs.Invoke(n0, ref, []model.Value{model.Int(5)})
	if err != nil {
		t.Fatal(err)
	}
	if r1[0].O != r2[0].O {
		t.Fatal("return graph not reused at the caller")
	}
}

func TestNestedRMI(t *testing.T) {
	e := newEnv(t, 2)
	echo := &Service{Name: "Echo", Methods: map[string]Method{
		"id": func(call *Call, args []model.Value) []model.Value { return args },
	}}
	refEcho := e.c.Node(0).Export(echo)
	csEcho := e.c.MustNewCallSite(LevelSite, SiteSpec{
		Name: "t.id.1", Method: "id",
		ArgPlans: []*serial.Plan{intPlan("a")},
		RetPlans: []*serial.Plan{intPlan("r")},
	})
	relay := &Service{Name: "Relay", Methods: map[string]Method{
		"relay": func(call *Call, args []model.Value) []model.Value {
			rets, err := csEcho.Invoke(call.Node, refEcho, args)
			if err != nil {
				panic(err)
			}
			return rets
		},
	}}
	refRelay := e.c.Node(1).Export(relay)
	csRelay := e.c.MustNewCallSite(LevelSite, SiteSpec{
		Name: "t.relay.1", Method: "relay",
		ArgPlans: []*serial.Plan{intPlan("a")},
		RetPlans: []*serial.Plan{intPlan("r")},
	})
	rets, err := csRelay.Invoke(e.c.Node(0), refRelay, []model.Value{model.Int(7)})
	if err != nil {
		t.Fatal(err)
	}
	if rets[0].I != 7 {
		t.Fatalf("nested RMI returned %v", rets[0])
	}
	if e.c.Counters.Snapshot().RemoteRPCs != 2 {
		t.Fatal("nested call should count two remote RPCs")
	}
}

func TestConcurrentInvocations(t *testing.T) {
	e := newEnv(t, 2)
	svc := &Service{Name: "Adder", Methods: map[string]Method{
		"inc": func(call *Call, args []model.Value) []model.Value {
			return []model.Value{model.Int(args[0].I + 1)}
		},
	}}
	ref := e.c.Node(1).Export(svc)
	cs := e.c.MustNewCallSite(LevelSiteReuseCycle, SiteSpec{
		Name: "t.inc.1", Method: "inc",
		ArgPlans: []*serial.Plan{intPlan("a")},
		RetPlans: []*serial.Plan{intPlan("r")},
	})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rets, err := cs.Invoke(e.c.Node(0), ref, []model.Value{model.Int(int64(i))})
				if err != nil {
					errs <- err
					return
				}
				if rets[0].I != int64(i)+1 {
					errs <- fmt.Errorf("got %d want %d", rets[0].I, i+1)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := e.c.Counters.Snapshot().RemoteRPCs; got != 400 {
		t.Fatalf("RemoteRPCs = %d", got)
	}
}

func TestErrors(t *testing.T) {
	e := newEnv(t, 2)
	svc := &Service{Name: "Bad", Methods: map[string]Method{
		"boom": func(call *Call, args []model.Value) []model.Value {
			panic("kaboom")
		},
	}}
	ref := e.c.Node(1).Export(svc)

	// Panicking method surfaces as an error, not a hang.
	cs := e.c.MustNewCallSite(LevelSite, SiteSpec{
		Name: "t.boom.1", Method: "boom", IgnoreRet: true,
	})
	if _, err := cs.Invoke(e.c.Node(0), ref, nil); err == nil {
		t.Fatal("panic did not surface")
	}

	// Unknown method.
	cs2 := e.c.MustNewCallSite(LevelSite, SiteSpec{Name: "t.x", Method: "nope", IgnoreRet: true})
	if _, err := cs2.Invoke(e.c.Node(0), ref, nil); err == nil {
		t.Fatal("unknown method accepted")
	}

	// Unknown object.
	if _, err := cs2.Invoke(e.c.Node(0), Ref{Node: 1, Obj: 999}, nil); err == nil {
		t.Fatal("unknown object accepted")
	}

	// Invalid plan rejected at registration.
	badPlan := &serial.Plan{Site: "b", Kind: model.FRef,
		Root: &serial.NodePlan{Class: e.node, Steps: []serial.Step{{Op: serial.OpInt, Field: 99}}}}
	if _, err := e.c.NewCallSite(LevelSite, SiteSpec{Name: "b", Method: "m", ArgPlans: []*serial.Plan{badPlan}}); err == nil {
		t.Fatal("invalid plan accepted")
	}
}

func TestVirtualClockCausality(t *testing.T) {
	e := newEnv(t, 2)
	svc := &Service{Name: "W", Methods: map[string]Method{
		"work": func(call *Call, args []model.Value) []model.Value {
			call.Compute(1_000_000) // 1 ms of virtual CPU work
			return nil
		},
	}}
	ref := e.c.Node(1).Export(svc)
	cs := e.c.MustNewCallSite(LevelSite, SiteSpec{Name: "t.w", Method: "work", IgnoreRet: true})
	if _, err := cs.Invoke(e.c.Node(0), ref, nil); err != nil {
		t.Fatal(err)
	}
	cost := e.c.Cost
	minRT := 2*cost.NetLatencyNS + 1_000_000
	if got := e.c.Node(0).Clock.Now(); got < minRT {
		t.Fatalf("caller clock %d < minimum causal round trip %d", got, minRT)
	}
	if e.c.MaxTime() < minRT {
		t.Fatal("makespan below causal minimum")
	}
}

func TestSiteFasterThanClassVirtually(t *testing.T) {
	// The headline claim, end to end: sending a 100-node list is
	// virtually faster with call-site serializers than with class
	// serializers, and faster again with reuse.
	times := map[OptLevel]int64{}
	for _, level := range AllLevels {
		e := newEnv(t, 2)
		ref := e.c.Node(1).Export(e.sumService())
		cs := e.c.MustNewCallSite(level, SiteSpec{
			Name: "t.sum.1", Method: "sum", IgnoreRet: true,
			ArgPlans: []*serial.Plan{e.listPlan("t.sum.1", true, true)},
		})
		head := e.makeList(100)
		for i := 0; i < 10; i++ {
			if _, err := cs.Invoke(e.c.Node(0), ref, []model.Value{model.Ref(head)}); err != nil {
				t.Fatal(err)
			}
		}
		times[level] = e.c.MaxTime()
	}
	if !(times[LevelSite] < times[LevelClass]) {
		t.Fatalf("site (%d) not faster than class (%d)", times[LevelSite], times[LevelClass])
	}
	if !(times[LevelSiteReuse] < times[LevelSite]) {
		t.Fatalf("site+reuse (%d) not faster than site (%d)", times[LevelSiteReuse], times[LevelSite])
	}
	// The list may contain cycles, so cycle elimination cannot help.
	if times[LevelSiteCycle] < times[LevelSite]*99/100 {
		t.Fatalf("cycle elimination changed a cyclic-flagged workload: %d vs %d",
			times[LevelSiteCycle], times[LevelSite])
	}
}

func TestBarrier(t *testing.T) {
	e := newEnv(t, 3)
	refBar := e.c.Node(0).Export(NewBarrierService(3))
	cs := e.c.MustNewCallSite(LevelSite, SiteSpec{Name: "t.bar", Method: BarrierMethod, IgnoreRet: true})
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := cs.Invoke(e.c.Node(i), refBar, nil); err != nil {
				t.Errorf("barrier: %v", err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if len(order) != 3 {
		t.Fatalf("barrier released %d parties", len(order))
	}
	// Reusable barrier: a second round must also complete.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _ = cs.Invoke(e.c.Node(i), refBar, nil)
		}(i)
	}
	wg.Wait()
}

func TestClusterOverTCP(t *testing.T) {
	nw, err := transport.NewTCPNetworkLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	e := newEnv(t, 2, WithNetwork(nw))
	ref := e.c.Node(1).Export(e.sumService())
	cs := e.c.MustNewCallSite(LevelSiteReuseCycle, SiteSpec{
		Name: "t.sum.tcp", Method: "sum",
		ArgPlans: []*serial.Plan{e.listPlan("t.sum.tcp", true, true)},
		RetPlans: []*serial.Plan{intPlan("r")},
	})
	for i := 0; i < 5; i++ {
		rets, err := cs.Invoke(e.c.Node(0), ref, []model.Value{model.Ref(e.makeList(20))})
		if err != nil {
			t.Fatal(err)
		}
		if rets[0].I != 190 {
			t.Fatalf("sum over TCP = %d", rets[0].I)
		}
	}
}

func TestOptLevelStrings(t *testing.T) {
	want := map[OptLevel]string{
		LevelClass:          "class",
		LevelSite:           "site",
		LevelSiteCycle:      "site + cycle",
		LevelSiteReuse:      "site + reuse",
		LevelSiteReuseCycle: "site + reuse + cycle",
	}
	for l, s := range want {
		if l.String() != s {
			t.Fatalf("%d.String() = %q", l, l.String())
		}
	}
	cfg := LevelSiteReuseCycle.Config()
	if !cfg.Site || !cfg.CycleElim || !cfg.Reuse {
		t.Fatal("LevelSiteReuseCycle config wrong")
	}
	if LevelClass.Config() != (Config{}) {
		t.Fatal("LevelClass config wrong")
	}
}

// TestNewRejectsEmptyCluster: a cluster size below one is a caller
// error named as such, not an index or makeslice panic further in.
func TestNewRejectsEmptyCluster(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				want := fmt.Sprintf("rmi: a cluster needs at least one node, got %d", n)
				if r := recover(); r != want {
					t.Errorf("New(%d) panicked with %v, want %q", n, r, want)
				}
			}()
			New(n)
		}()
	}
}
