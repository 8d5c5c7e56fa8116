package rmi

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"cormi/internal/model"
	"cormi/internal/serial"
)

// waitPending polls Cluster.PendingCalls until it reads want (a live
// level fed by background goroutines).
func waitPending(t *testing.T, c *Cluster, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := c.PendingCalls()
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("PendingCalls never read %d; last %d", want, got)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverloadTracksPendingCalls: a caller blocked on a gated method
// owes one reply, which PendingCalls reports until the gate opens and
// the reply lands.
func TestOverloadTracksPendingCalls(t *testing.T) {
	e := newEnv(t, 2)
	if n := e.c.PendingCalls(); n != 0 {
		t.Fatalf("idle cluster has %d pending calls, want 0", n)
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
	waitPending(t, e.c, 1)

	release()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	// The level drains back: no reply stays owed.
	waitPending(t, e.c, 0)
}
