package rmi

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cormi/internal/balance"
	"cormi/internal/model"
	"cormi/internal/serial"
	"cormi/internal/transport"
	"cormi/internal/wire"
)

// countingService returns arg+1 and counts how many times the method
// body actually ran — the exactly-once witness under retransmission.
func countingService(execs *atomic.Int64) *Service {
	return &Service{
		Name: "Counter",
		Methods: map[string]Method{
			"bump": func(call *Call, args []model.Value) []model.Value {
				execs.Add(1)
				return []model.Value{model.Int(args[0].I + 1)}
			},
		},
	}
}

// lossyNetwork is the in-process channel network with one directed
// link that loses every packet: one-way loss, which a partition (both
// directions cut) cannot express.
type lossyNetwork struct {
	transport.Network
	from, to int
}

type lossyEndpoint struct {
	transport.Endpoint
	to int
}

// withOneWayLoss runs an n-node cluster on a network where every
// packet from node from to node to is lost.
func withOneWayLoss(n, from, to int) Option {
	return WithNetwork(&lossyNetwork{transport.NewChannelNetwork(n, channelDepth), from, to})
}

func (l *lossyNetwork) Endpoint(node int) transport.Endpoint {
	ep := l.Network.Endpoint(node)
	if node != l.from {
		return ep
	}
	return lossyEndpoint{ep, l.to}
}

func (e lossyEndpoint) Send(p transport.Packet) error {
	if p.To == e.to {
		wire.PutBuf(p.Payload)
		return nil
	}
	return e.Endpoint.Send(p)
}

func bumpSite(t *testing.T, c *Cluster) *CallSite {
	t.Helper()
	return c.MustNewCallSite(LevelSite, SiteSpec{
		Name: "t.bump.1", Method: "bump",
		ArgPlans: []*serial.Plan{intPlan("t.bump.1")},
		RetPlans: []*serial.Plan{intPlan("t.bump.1")},
	})
}

func TestLostReplyReturnsErrTimeout(t *testing.T) {
	// Every reply 1→0 is dropped; the calls themselves arrive. The
	// caller must surface ErrTimeout once its retry budget is spent —
	// not hang — and the callee-side dedup must keep the method body at
	// one execution despite every retransmit being delivered.
	e := newEnv(t, 2, withOneWayLoss(2, 1, 0))
	var execs atomic.Int64
	ref := e.c.Node(1).Export(countingService(&execs))
	cs := bumpSite(t, e.c)

	cs.SetCallPolicy(CallPolicy{Timeout: 20 * time.Millisecond, Retries: 3, Backoff: time.Millisecond})
	start := time.Now()
	_, err := cs.Invoke(e.c.Node(0), ref, []model.Value{model.Int(7)})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	// 4 attempts × 20ms plus backoffs; generous bound to absorb CI jitter.
	if elapsed > 2*time.Second {
		t.Fatalf("timed out only after %v; deadline not enforced", elapsed)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("method executed %d times, want 1 (retransmits must dedup)", got)
	}
	if e.c.Counters.Retries.Load() != 3 || e.c.Counters.Timeouts.Load() != 1 {
		t.Errorf("retries=%d timeouts=%d, want 3 and 1",
			e.c.Counters.Retries.Load(), e.c.Counters.Timeouts.Load())
	}
	if e.c.Counters.DupSuppressed.Load() == 0 {
		t.Error("no duplicates suppressed; dedup cache not consulted")
	}
}

func TestPartitionReturnsErrPartitioned(t *testing.T) {
	e := newEnv(t, 2, WithFaults(transport.FaultConfig{Seed: 2}))
	var execs atomic.Int64
	ref := e.c.Node(1).Export(countingService(&execs))
	cs := bumpSite(t, e.c)

	fn := e.c.Network().(*transport.FaultyNetwork)
	fn.Partition(0, 1)
	cs.SetCallPolicy(CallPolicy{Timeout: 10 * time.Millisecond, Retries: 1})
	_, err := cs.Invoke(e.c.Node(0), ref, []model.Value{model.Int(1)})
	if !errors.Is(err, ErrPartitioned) {
		t.Fatalf("err = %v, want ErrPartitioned", err)
	}
	if execs.Load() != 0 {
		t.Fatalf("method ran across a partition")
	}

	// After healing, the same call site works again.
	fn.Heal(0, 1)
	rets, err := cs.Invoke(e.c.Node(0), ref, []model.Value{model.Int(1)})
	if err != nil || rets[0].I != 2 {
		t.Fatalf("after heal: rets=%v err=%v", rets, err)
	}
}

func TestRetriesRecoverExactlyOnce(t *testing.T) {
	// A lossy, duplicating link in both directions: every call must
	// still return the right answer, and the method body must run
	// exactly once per logical call.
	e := newEnv(t, 2,
		WithFaults(transport.FaultConfig{
			Seed:       3,
			FaultRates: transport.FaultRates{Drop: 0.25, Dup: 0.25},
		}),
		WithCallPolicy(CallPolicy{Timeout: 25 * time.Millisecond, Retries: 20, Backoff: time.Millisecond}),
	)
	var execs atomic.Int64
	ref := e.c.Node(1).Export(countingService(&execs))
	cs := bumpSite(t, e.c)

	const calls = 40
	for i := 0; i < calls; i++ {
		rets, err := cs.Invoke(e.c.Node(0), ref, []model.Value{model.Int(int64(i))})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if rets[0].I != int64(i)+1 {
			t.Fatalf("call %d returned %d, want %d", i, rets[0].I, i+1)
		}
	}
	if got := execs.Load(); got != calls {
		t.Fatalf("method executed %d times for %d calls", got, calls)
	}
	if e.c.Counters.Retries.Load() == 0 {
		t.Error("25%% drop produced no retries; faults not exercised")
	}
	// Duplicated calls are suppressed by dedup; duplicated replies land
	// as stale. At these rates at least one of each family must occur.
	if e.c.Counters.DupSuppressed.Load()+e.c.Counters.StaleReplies.Load() == 0 {
		t.Error("25%% duplication produced no suppressed duplicates")
	}
}

func TestRemotePanicBecomesRemoteException(t *testing.T) {
	e := newEnv(t, 2)
	svc := &Service{Name: "Bomb", Methods: map[string]Method{
		"boom": func(call *Call, args []model.Value) []model.Value {
			panic("kaboom")
		},
	}}
	ref := e.c.Node(1).Export(svc)
	cs := e.c.MustNewCallSite(LevelSite, SiteSpec{
		Name: "t.boom.1", Method: "boom", NumRet: 0, IgnoreRet: true,
	})
	_, err := cs.Invoke(e.c.Node(0), ref, nil)
	if err == nil {
		t.Fatal("panicking method returned nil error")
	}
	if !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("error %q does not carry the panic value", err)
	}
	if !strings.Contains(err.Error(), "goroutine") {
		t.Errorf("error %q does not carry the callee stack", err)
	}
	// The callee survives: the same service keeps answering.
	if _, err := cs.Invoke(e.c.Node(0), ref, nil); err == nil ||
		!strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("second call after panic: %v", err)
	}
}

func TestLocalPanicAlsoRecovered(t *testing.T) {
	e := newEnv(t, 1)
	svc := &Service{Name: "Bomb", Methods: map[string]Method{
		"boom": func(call *Call, args []model.Value) []model.Value {
			panic("local kaboom")
		},
	}}
	ref := e.c.Node(0).Export(svc)
	cs := e.c.MustNewCallSite(LevelSite, SiteSpec{
		Name: "t.boom.2", Method: "boom", NumRet: 0, IgnoreRet: true,
	})
	_, err := cs.Invoke(e.c.Node(0), ref, nil)
	if err == nil || !strings.Contains(err.Error(), "local kaboom") {
		t.Fatalf("local panic: err = %v", err)
	}
}

func TestCorruptFramesDroppedAndRecovered(t *testing.T) {
	e := newEnv(t, 2,
		WithFaults(transport.FaultConfig{
			Seed:       4,
			FaultRates: transport.FaultRates{Corrupt: 0.3},
		}),
		WithCallPolicy(CallPolicy{Timeout: 25 * time.Millisecond, Retries: 20, Backoff: time.Millisecond}),
	)
	var execs atomic.Int64
	ref := e.c.Node(1).Export(countingService(&execs))
	cs := bumpSite(t, e.c)
	const calls = 30
	for i := 0; i < calls; i++ {
		rets, err := cs.Invoke(e.c.Node(0), ref, []model.Value{model.Int(int64(i))})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if rets[0].I != int64(i)+1 {
			t.Fatalf("call %d returned %d, want %d", i, rets[0].I, i+1)
		}
	}
	if execs.Load() != calls {
		t.Fatalf("method executed %d times for %d calls", execs.Load(), calls)
	}
	if e.c.Counters.CorruptDropped.Load() == 0 {
		t.Error("30%% corruption produced no checksum drops")
	}
}

func TestDedupCacheEviction(t *testing.T) {
	// A tiny dedup cache must still serve a full run correctly: old
	// entries are evicted FIFO, fresh calls keep flowing.
	e := newEnv(t, 2, WithDedupCap(4))
	var execs atomic.Int64
	ref := e.c.Node(1).Export(countingService(&execs))
	cs := bumpSite(t, e.c)
	for i := 0; i < 64; i++ {
		if _, err := cs.Invoke(e.c.Node(0), ref, []model.Value{model.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if execs.Load() != 64 {
		t.Fatalf("executed %d, want 64", execs.Load())
	}
	n1 := e.c.Node(1)
	n1.dedupMu.Lock()
	size := len(n1.dedup)
	n1.dedupMu.Unlock()
	if size > 4 {
		t.Fatalf("dedup cache holds %d entries, cap is 4", size)
	}
}

func TestCloseFailsPendingWithPolicy(t *testing.T) {
	// A caller inside its retry loop must be unblocked by Close with
	// ErrClusterClosed, not left to burn through its full retry budget.
	e := newEnv(t, 2, withOneWayLoss(2, 1, 0))
	var execs atomic.Int64
	ref := e.c.Node(1).Export(countingService(&execs))
	cs := bumpSite(t, e.c)

	cs.SetCallPolicy(CallPolicy{Timeout: 50 * time.Millisecond, Retries: 1000})
	errc := make(chan error, 1)
	go func() {
		_, err := cs.Invoke(e.c.Node(0), ref, []model.Value{model.Int(1)})
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the call get in flight
	e.c.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClusterClosed) {
			t.Fatalf("err = %v, want ErrClusterClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the retrying caller")
	}
}

// TestBackoffSaturates: with no MaxBackoff set, the exponential
// doubling must saturate rather than grow into multi-minute sleeps or
// overflow the shift into a negative duration (which would skip the
// sleep entirely). This is what keeps a deep retry budget bounded.
func TestBackoffSaturates(t *testing.T) {
	pol := CallPolicy{Timeout: 10 * time.Millisecond, Retries: 64, Backoff: time.Millisecond}
	var total time.Duration
	for retry := 1; retry <= pol.Retries; retry++ {
		d := pol.nextBackoff(retry)
		if d <= 0 {
			t.Fatalf("nextBackoff(%d) = %v, want positive", retry, d)
		}
		if d > maxUncappedBackoff {
			t.Fatalf("nextBackoff(%d) = %v, exceeds saturation %v", retry, d, maxUncappedBackoff)
		}
		total += d
	}
	if limit := time.Duration(pol.Retries) * maxUncappedBackoff; total > limit {
		t.Fatalf("total backoff %v exceeds %v", total, limit)
	}
	capped := CallPolicy{Backoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond}
	if d := capped.nextBackoff(40); d != 8*time.Millisecond {
		t.Fatalf("capped nextBackoff(40) = %v, want 8ms", d)
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

	cs.SetCallPolicy(CallPolicy{Timeout: 150 * time.Microsecond})
	const callers, calls = 8, 1000
	var wg sync.WaitGroup
	wg.Add(callers)
	for g := 0; g < callers; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				// Latencies of 0-300µs straddle the deadline, so some
				// replies arrive just as the caller gives up.
				_, err := cs.Invoke(e.c.Node(0), ref, []model.Value{model.Int(int64(i + g))})
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
	if err := mark.Settled(e.c.PendingCalls); err != nil {
		t.Fatal(err)
	}
}
