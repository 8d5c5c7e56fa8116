package rmi

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"cormi/internal/model"
	"cormi/internal/serial"
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
			t.Fatalf("overload condition %q never held; last %+v", what, o)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverloadTracksPendingCalls: a caller blocked on a gated method
// owes one reply, which Overload reports until the gate opens and the
// reply lands.
func TestOverloadTracksPendingCalls(t *testing.T) {
	e := newEnv(t, 2)
	if o := e.c.Overload(); o != (stats.OverloadStats{}) {
		t.Fatalf("idle cluster overload = %+v, want zero", o)
	}

	gate := make(chan struct{})
	var open sync.Once
	release := func() { open.Do(func() { close(gate) }) }
	t.Cleanup(release)
	ref := e.c.Node(1).Export(&Service{Name: "Gated", Methods: map[string]Method{
		"slow": func(call *Call, args []model.Value) []model.Value {
			<-gate
			return []model.Value{model.Int(args[0].I + 1)}
		},
	}})
	const name = "t.gated.slow"
	cs := e.c.MustNewCallSite(LevelSite, SiteSpec{
		Name: name, Method: "slow",
		ArgPlans: []*serial.Plan{intPlan(name)},
		RetPlans: []*serial.Plan{intPlan(name)},
	})

	errc := make(chan error, 1)
	go func() {
		vals, err := cs.Invoke(e.c.Node(0), ref, []model.Value{model.Int(1)})
		if err == nil && vals[0].I != 2 {
			err = fmt.Errorf("slow(1) = %d, want 2", vals[0].I)
		}
		errc <- err
	}()
	waitOverload(t, e.c, "one pending call", func(o stats.OverloadStats) bool {
		return o.PendingCalls == 1
	})

	release()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	// The level drains back: no reply stays owed.
	waitOverload(t, e.c, "drained", func(o stats.OverloadStats) bool {
		return o.PendingCalls == 0
	})
}
