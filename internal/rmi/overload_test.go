package rmi

import (
	"sync/atomic"
	"testing"
	"time"

	"cormi/internal/model"
	"cormi/internal/stats"
)

// waitOverload polls Cluster.Overload until cond accepts the snapshot
// (these are live levels fed by background goroutines).
func waitOverload(t *testing.T, c *Cluster, what string, cond func(stats.OverloadStats) bool) stats.OverloadStats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		o := c.Overload()
		if cond(o) {
			return o
		}
		if time.Now().After(deadline) {
			t.Fatalf("overload condition %q never held; last %s", what, o)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestOverloadTracksParkedExecutorsAndPendingCalls(t *testing.T) {
	e := newEnv(t, 2)
	if o := e.c.Overload(); o != (stats.OverloadStats{}) {
		t.Fatalf("idle cluster overload = %s, want zero", o)
	}

	gate := make(chan struct{})
	var execs atomic.Int64
	ref := pipelineEnv(t, e.c, gate, &execs)
	slow := pipeSite(t, e.c, "slow")
	bump := pipeSite(t, e.c, "bump")

	// The producer blocks at the callee, so the dependent call parks:
	// while it does, the caller has pending replies outstanding, the
	// promise table holds the producer's entry, and one executor is
	// parked.
	f1 := slow.InvokeAsync(e.c.Node(0), ref, []model.Value{model.Int(1)}, AsyncOpts{Promised: true})
	f2 := bump.InvokeAsync(e.c.Node(0), ref, []model.Value{{}}, AsyncOpts{
		Promises: []PromiseArg{{Arg: 0, Fut: f1}},
	})
	o := waitOverload(t, e.c, "parked executor", func(o stats.OverloadStats) bool {
		return o.PromiseParked == 1
	})
	if o.PendingCalls < 1 {
		t.Errorf("PendingCalls = %d while two calls are in flight", o.PendingCalls)
	}
	if o.PromiseTable < 1 {
		t.Errorf("PromiseTable = %d while a promised call is in flight", o.PromiseTable)
	}

	close(gate)
	if _, err := f2.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := f1.Wait(); err != nil {
		t.Fatal(err)
	}
	f1.Release()
	f2.Release()
	// Levels drain back: no executor stays parked, no reply stays owed.
	waitOverload(t, e.c, "drained", func(o stats.OverloadStats) bool {
		return o.PromiseParked == 0 && o.PendingCalls == 0
	})
}
