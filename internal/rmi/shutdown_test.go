package rmi

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cormi/internal/balance"
	"cormi/internal/model"
	"cormi/internal/serial"
)

// TestCloseReturnsReplyCacheAndPromiseTable: every tracked call leaves
// a pooled copy of its reply in the callee's dedup cache, and every
// promised call an entry in its promise table; Close must hand both
// back (it used to strand one frame per tracked call for good).
func TestCloseReturnsReplyCacheAndPromiseTable(t *testing.T) {
	mark := balance.Take()
	c := New(2, WithCallPolicy(CallPolicy{Timeout: time.Second, Retries: 2}))
	var execs atomic.Int64
	ref := c.Node(1).Export(countingService(&execs))
	cs := bumpSite(t, c)
	const calls = 30
	for i := 0; i < calls; i++ {
		f := cs.InvokeAsync(c.Node(0), ref, []model.Value{model.Int(int64(i))}, AsyncOpts{Promised: true})
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	if o := c.Overload(); o.PromiseTable != calls {
		t.Fatalf("promise table holds %d entries before Close, want %d", o.PromiseTable, calls)
	}
	c.Close()
	if err := mark.Settled(c.Overload); err != nil {
		t.Fatal(err)
	}
}

func TestInvokeAfterCloseErrors(t *testing.T) {
	e := newEnv(t, 2)
	ref := e.c.Node(1).Export(e.sumService())
	cs := e.c.MustNewCallSite(LevelSite, SiteSpec{
		Name: "t.sum", Method: "sum", IgnoreRet: true,
		ArgPlans: []*serial.Plan{e.listPlan("t.sum", true, false)},
	})
	e.c.Close()
	if _, err := cs.Invoke(e.c.Node(0), ref, []model.Value{model.Ref(e.makeList(2))}); err == nil {
		t.Fatal("invoke after close succeeded")
	}
	// Idempotent close.
	e.c.Close()
}

func TestCloseUnblocksPendingCallers(t *testing.T) {
	e := newEnv(t, 2)
	block := make(chan struct{})
	svc := &Service{Name: "Slow", Methods: map[string]Method{
		"wait": func(call *Call, args []model.Value) []model.Value {
			<-block
			return nil
		},
	}}
	ref := e.c.Node(1).Export(svc)
	cs := e.c.MustNewCallSite(LevelSite, SiteSpec{Name: "t.wait", Method: "wait", IgnoreRet: true})

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := cs.Invoke(e.c.Node(0), ref, nil)
			errs <- err
		}()
	}
	// Give the calls time to be in flight, then tear the cluster down;
	// every caller must unblock with an error rather than hang.
	for e.c.Counters.Snapshot().RemoteRPCs < 4 {
	}
	e.c.Close()
	close(block)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err == nil {
			t.Fatal("pending invoke returned success after close")
		}
	}
}

func TestLocalInvokeClassModeReturnsCloned(t *testing.T) {
	// Class-mode local call with a used return: the serializer clone
	// path must still produce isolated copies.
	e := newEnv(t, 1)
	n0 := e.c.Node(0)
	ref := n0.Export(e.sumService())
	cs := e.c.MustNewCallSite(LevelClass, SiteSpec{Name: "t.mut", Method: "mutate", NumRet: 1})
	head := e.makeList(2)
	rets, err := cs.Invoke(n0, ref, []model.Value{model.Ref(head)})
	if err != nil {
		t.Fatal(err)
	}
	if head.Get("v").I == -1 || rets[0].O == head {
		t.Fatal("class-mode local call broke cloning semantics")
	}
}

func TestCloseCompletesInFlightFutures(t *testing.T) {
	// A future whose call is parked at the callee when the cluster goes
	// down must complete with ErrClusterClosed rather than hang its
	// eventual waiter.
	e := newEnv(t, 2)
	block := make(chan struct{})
	defer close(block)
	svc := &Service{Name: "Slow", Methods: map[string]Method{
		"wait": func(call *Call, args []model.Value) []model.Value {
			<-block
			return nil
		},
	}}
	ref := e.c.Node(1).Export(svc)
	cs := e.c.MustNewCallSite(LevelSite, SiteSpec{Name: "t.fwait", Method: "wait", IgnoreRet: true})

	f := cs.InvokeAsync(e.c.Node(0), ref, nil, AsyncOpts{})
	errc := make(chan error, 1)
	go func() { errc <- f.Err() }()
	for e.c.Counters.Snapshot().RemoteRPCs < 1 {
	}
	e.c.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("future resolved successfully across Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not complete the in-flight future")
	}
}

func TestCloseUnparksPipelinedCalls(t *testing.T) {
	// A pipelined call parked on an unresolved promise must unblock on
	// Close: the promise table is failed, the parked executor rejects,
	// and the caller's future completes with an error instead of
	// extending shutdown indefinitely.
	e := newEnv(t, 2)
	gate := make(chan struct{})
	defer close(gate)
	var execs atomic.Int64
	ref := pipelineEnv(t, e.c, gate, &execs)
	slow := pipeSite(t, e.c, "slow")
	bump := pipeSite(t, e.c, "bump")

	f1 := slow.InvokeAsync(e.c.Node(0), ref, []model.Value{model.Int(1)}, AsyncOpts{Promised: true})
	f2 := bump.InvokeAsync(e.c.Node(0), ref, []model.Value{{}}, AsyncOpts{
		Promises: []PromiseArg{{Arg: 0, Fut: f1}},
	})
	errc := make(chan error, 1)
	go func() { errc <- f2.Err() }()
	deadline := time.Now().Add(5 * time.Second)
	for e.c.Counters.PromiseParks.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("dependent call never parked")
		}
		time.Sleep(time.Millisecond)
	}
	done := make(chan struct{})
	go func() { e.c.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a parked pipelined call")
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("parked pipelined call resolved successfully across Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked pipelined call never completed after Close")
	}
}
