package rmi

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cormi/internal/balance"
	"cormi/internal/model"
	"cormi/internal/race"
	"cormi/internal/serial"
	"cormi/internal/transport"
	"cormi/internal/wire"
)

func TestInvokeAsyncBasic(t *testing.T) {
	e := newEnv(t, 2)
	var execs atomic.Int64
	ref := e.c.Node(1).Export(countingService(&execs))
	cs := bumpSite(t, e.c)

	f := cs.InvokeAsync(e.c.Node(0), ref, []model.Value{model.Int(41)}, AsyncOpts{})
	vals, err := f.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].I != 42 {
		t.Fatalf("got %d, want 42", vals[0].I)
	}
	// Wait memoizes: a second Wait returns the same outcome.
	again, err := f.Wait()
	if err != nil || again[0].I != 42 {
		t.Fatalf("second Wait: vals=%v err=%v", again, err)
	}
	f.Release()
	if e.c.Counters.AsyncCalls.Load() != 1 {
		t.Errorf("AsyncCalls = %d, want 1", e.c.Counters.AsyncCalls.Load())
	}
	if execs.Load() != 1 {
		t.Errorf("executed %d times, want 1", execs.Load())
	}
}

func TestInvokeAsyncLocalIsImmediate(t *testing.T) {
	e := newEnv(t, 2)
	var execs atomic.Int64
	ref := e.c.Node(0).Export(countingService(&execs))
	cs := bumpSite(t, e.c)
	f := cs.InvokeAsync(e.c.Node(0), ref, []model.Value{model.Int(1)}, AsyncOpts{})
	select {
	case <-f.Done():
	default:
		t.Fatal("local async call not immediately resolved")
	}
	vals, err := f.Wait()
	if err != nil || vals[0].I != 2 {
		t.Fatalf("local async: vals=%v err=%v", vals, err)
	}
	f.Release()
}

func TestFutureDoneStartsDriver(t *testing.T) {
	e := newEnv(t, 2)
	var execs atomic.Int64
	ref := e.c.Node(1).Export(countingService(&execs))
	cs := bumpSite(t, e.c)
	f := cs.InvokeAsync(e.c.Node(0), ref, []model.Value{model.Int(9)}, AsyncOpts{})
	// Nobody calls Wait: Done's driver goroutine must complete the call.
	select {
	case <-f.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("Done channel never closed")
	}
	if vals, err := f.Wait(); err != nil || vals[0].I != 10 {
		t.Fatalf("after Done: vals=%v err=%v", vals, err)
	}
	f.Release()
}

func TestFutureReleaseWithoutWaitAbandons(t *testing.T) {
	e := newEnv(t, 2)
	var execs atomic.Int64
	ref := e.c.Node(1).Export(countingService(&execs))
	cs := bumpSite(t, e.c)
	for i := 0; i < 20; i++ {
		f := cs.InvokeAsync(e.c.Node(0), ref, []model.Value{model.Int(int64(i))}, AsyncOpts{})
		f.Release()
	}
	// The abandoned calls still execute (they were on the wire); the
	// runtime stays healthy and a fresh call still works.
	vals, err := cs.Invoke(e.c.Node(0), ref, []model.Value{model.Int(1)})
	if err != nil || vals[0].I != 2 {
		t.Fatalf("after abandons: vals=%v err=%v", vals, err)
	}
}

// pipelineEnv exports a gated producer/consumer pair for deterministic
// park-path tests: "slow" blocks on the gate before returning its
// argument + 1, "bump" returns its argument + 1 immediately.
func pipelineEnv(t *testing.T, c *Cluster, gate chan struct{}, execs *atomic.Int64) Ref {
	t.Helper()
	return c.Node(1).Export(&Service{
		Name: "Pipe",
		Methods: map[string]Method{
			"slow": func(call *Call, args []model.Value) []model.Value {
				<-gate
				execs.Add(1)
				return []model.Value{model.Int(args[0].I + 1)}
			},
			"bump": func(call *Call, args []model.Value) []model.Value {
				execs.Add(1)
				return []model.Value{model.Int(args[0].I + 1)}
			},
		},
	})
}

func pipeSite(t *testing.T, c *Cluster, method string) *CallSite {
	t.Helper()
	name := "t.pipe." + method
	return c.MustNewCallSite(LevelSite, SiteSpec{
		Name: name, Method: method,
		ArgPlans: []*serial.Plan{intPlan(name)},
		RetPlans: []*serial.Plan{intPlan(name)},
	})
}

func TestPromisePipelineParksAndResolves(t *testing.T) {
	e := newEnv(t, 2)
	gate := make(chan struct{})
	var execs atomic.Int64
	ref := pipelineEnv(t, e.c, gate, &execs)
	slow := pipeSite(t, e.c, "slow")
	bump := pipeSite(t, e.c, "bump")

	// The producer blocks at the callee until the gate opens, so the
	// dependent call must arrive first and park on the promise.
	f1 := slow.InvokeAsync(e.c.Node(0), ref, []model.Value{model.Int(10)}, AsyncOpts{Promised: true})
	f2 := bump.InvokeAsync(e.c.Node(0), ref, []model.Value{{}}, AsyncOpts{
		Promises: []PromiseArg{{Arg: 0, Fut: f1}},
	})
	deadline := time.Now().Add(5 * time.Second)
	for e.c.Counters.PromiseParks.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("dependent call never parked on the unresolved promise")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	vals, err := f2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].I != 12 {
		t.Fatalf("pipelined chain returned %d, want 12", vals[0].I)
	}
	if _, err := f1.Wait(); err != nil {
		t.Fatalf("producer future: %v", err)
	}
	f1.Release()
	f2.Release()
	if e.c.Counters.PipelinedCalls.Load() != 1 {
		t.Errorf("PipelinedCalls = %d, want 1", e.c.Counters.PipelinedCalls.Load())
	}
	if e.c.Counters.PromisedCalls.Load() != 1 {
		t.Errorf("PromisedCalls = %d, want 1", e.c.Counters.PromisedCalls.Load())
	}
}

func TestPipelineFallbackWithoutCapability(t *testing.T) {
	// The callee's pipelining capability is masked: the same program
	// must still compute the right answer via resolve-then-send, and
	// count the demotions.
	e := newEnv(t, 2, WithoutCaps(1, wire.CapPipelining))
	var execs atomic.Int64
	ref := e.c.Node(1).Export(countingService(&execs))
	cs := bumpSite(t, e.c)

	f1 := cs.InvokeAsync(e.c.Node(0), ref, []model.Value{model.Int(1)}, AsyncOpts{Promised: true})
	f2 := cs.InvokeAsync(e.c.Node(0), ref, []model.Value{{}}, AsyncOpts{
		Promises: []PromiseArg{{Arg: 0, Fut: f1}},
	})
	vals, err := f2.Wait()
	if err != nil || vals[0].I != 3 {
		t.Fatalf("fallback chain: vals=%v err=%v", vals, err)
	}
	f1.Release()
	f2.Release()
	if e.c.Counters.PipelineFallbacks.Load() == 0 {
		t.Error("no PipelineFallbacks counted on a non-pipelining link")
	}
	if e.c.Counters.PipelinedCalls.Load() != 0 {
		t.Errorf("PipelinedCalls = %d on a non-pipelining link", e.c.Counters.PipelinedCalls.Load())
	}
}

func TestPipelinedChainUnderFaults(t *testing.T) {
	// Drop + duplicate both the producer and dependent call frames (and
	// their replies): a dropped producer must be retransmitted by its
	// own waiter and unpark the dependent; a duplicated one must be
	// absorbed by dedup without re-splicing the promise. Every link of
	// every chain still executes exactly once.
	e := newEnv(t, 2,
		WithFaults(transport.FaultConfig{
			Seed:       13,
			FaultRates: transport.FaultRates{Drop: 0.2, Dup: 0.2},
		}),
		WithCallPolicy(CallPolicy{Timeout: 25 * time.Millisecond, Retries: 20, Backoff: time.Millisecond}),
	)
	var execs atomic.Int64
	ref := e.c.Node(1).Export(countingService(&execs))
	cs := bumpSite(t, e.c)

	const depth, chains = 5, 10
	for it := 0; it < chains; it++ {
		futs := make([]*Future, depth)
		futs[0] = cs.InvokeAsync(e.c.Node(0), ref, []model.Value{model.Int(int64(it))}, AsyncOpts{Promised: true})
		for d := 1; d < depth; d++ {
			futs[d] = cs.InvokeAsync(e.c.Node(0), ref, []model.Value{{}}, AsyncOpts{
				Promised: d < depth-1,
				Promises: []PromiseArg{{Arg: 0, Fut: futs[d-1]}},
			})
		}
		// Drive every future: under loss, the retransmit of a dropped
		// producer frame comes from that producer's own waiter.
		for d := 0; d < depth; d++ {
			vals, err := futs[d].Wait()
			if err != nil {
				t.Fatalf("chain %d link %d: %v", it, d, err)
			}
			if want := int64(it + d + 1); vals[0].I != want {
				t.Fatalf("chain %d link %d: got %d, want %d", it, d, vals[0].I, want)
			}
		}
		for _, f := range futs {
			f.Release()
		}
	}
	if got := execs.Load(); got != chains*depth {
		t.Fatalf("method executed %d times, want exactly %d", got, chains*depth)
	}
	if e.c.Counters.Retries.Load() == 0 {
		t.Error("20%% drop produced no retries; faults not exercised")
	}
}

func TestAbandonedTimeoutsDoNotLeakBuffers(t *testing.T) {
	// Regression: a reply racing in exactly as its caller abandons the
	// timed-out call used to strand the pooled reply channel (and the
	// reply payload) forever. Hammer the race window — server latency
	// straddling the call deadline, several callers contending for the
	// pending table — and require the frame pool's get/put balance to
	// return to its baseline once the cluster is torn down (a live
	// cluster keeps parked executors). With routeReply sending after it
	// unlocks, as before the fix, this reads "+N frames" in most runs.
	mark := balance.Take()
	e := newEnv(t, 2)
	ref := e.c.Node(1).Export(&Service{Name: "Laggy", Methods: map[string]Method{
		"lag": func(call *Call, args []model.Value) []model.Value {
			time.Sleep(time.Duration(args[0].I%4) * 100 * time.Microsecond)
			return []model.Value{args[0]}
		},
	}})
	name := "t.lag.1"
	cs := e.c.MustNewCallSite(LevelSite, SiteSpec{
		Name: name, Method: "lag",
		ArgPlans: []*serial.Plan{intPlan(name)},
		RetPlans: []*serial.Plan{intPlan(name)},
	})

	pol := CallPolicy{Timeout: 150 * time.Microsecond}
	const callers, calls = 8, 1000
	var wg sync.WaitGroup
	wg.Add(callers)
	for g := 0; g < callers; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				// Latencies of 0-300µs straddle the deadline, so some
				// replies arrive just as the caller gives up.
				_, err := cs.InvokeWithPolicy(e.c.Node(0), ref, []model.Value{model.Int(int64(i + g))}, pol)
				if err != nil && !errors.Is(err, ErrTimeout) {
					t.Errorf("caller %d, call %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Quiescence: the last late replies need their server sleeps to
	// expire and the frames to be drained as stale or dropped by the
	// closed network.
	e.c.Close()
	if err := mark.Settled(e.c.Overload); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncSteadyStateAllocs bounds the per-call allocation overhead of
// the future layer: one pooled Future re-arm (its done channel) on top
// of the synchronous path's invocation record, result slice and the
// bump method's own result (4.00 measured; budget measured + 1).
func TestAsyncSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	e := newEnv(t, 2)
	var execs atomic.Int64
	ref := e.c.Node(1).Export(countingService(&execs))
	cs := bumpSite(t, e.c)
	caller := e.c.Node(0)
	argv := []model.Value{model.Int(7)}
	invoke := func() {
		f := cs.InvokeAsync(caller, ref, argv, AsyncOpts{})
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	for i := 0; i < 50; i++ {
		invoke()
	}
	avg := testing.AllocsPerRun(300, invoke)
	t.Logf("async: %.2f allocs per invocation", avg)
	if avg > 5 {
		t.Fatalf("async path allocates %.2f per call, budget 5", avg)
	}
}
