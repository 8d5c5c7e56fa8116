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

// TestCloseReturnsReplyCache: every tracked call leaves a pooled copy
// of its reply in the callee's dedup cache; Close must hand it back (it
// used to strand one frame per tracked call for good).
func TestCloseReturnsReplyCache(t *testing.T) {
	mark := balance.Take()
	c := New(2, WithCallPolicy(CallPolicy{Timeout: time.Second, Retries: 2}))
	var execs atomic.Int64
	ref := c.Node(1).Export(countingService(&execs))
	cs := bumpSite(t, c)
	const calls = 30
	for i := 0; i < calls; i++ {
		if _, err := cs.Invoke(c.Node(0), ref, []model.Value{model.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if n := execs.Load(); n != calls {
		t.Fatalf("%d executions, want %d", n, calls)
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
