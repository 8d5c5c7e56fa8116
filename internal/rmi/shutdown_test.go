package rmi

import (
	"errors"
	"fmt"
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
	if err := mark.Settled(c.PendingCalls); err != nil {
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
	if _, err := cs.Invoke(e.c.Node(0), ref, []model.Value{model.Ref(e.makeList(2))}); !errors.Is(err, ErrClusterClosed) {
		t.Fatalf("invoke after close: err = %v, want ErrClusterClosed", err)
	}
	// Idempotent close.
	e.c.Close()
}

// TestInvokeSendFailureReclaimsCall: a call whose first send fails (here
// to a node the network does not have) returns the send error, and its
// pending entry, reply channel and frame are reclaimed.
func TestInvokeSendFailureReclaimsCall(t *testing.T) {
	mark := balance.Take()
	c := New(2)
	cs := intSite(c, "t.lost", "lost")
	_, err := cs.Invoke(c.Node(0), Ref{Node: 5, Obj: 1}, []model.Value{model.Int(1)})
	if err == nil || !strings.Contains(err.Error(), "rmi: send: transport: no node 5") {
		t.Fatalf("err = %v, want the send error", err)
	}
	if n := c.PendingCalls(); n != 0 {
		t.Errorf("%d calls still pending after the send failed", n)
	}
	c.Close()
	if err := mark.Settled(c.PendingCalls); err != nil {
		t.Fatal(err)
	}
}

// TestCloseUnblocksPendingCallers also waits for the released
// executors to finish their replies, so no frame they hold is returned
// inside the next test's balance window.
func TestCloseUnblocksPendingCallers(t *testing.T) {
	mark := balance.Take()
	e := newEnv(t, 2)
	block := make(chan struct{})
	var entered sync.WaitGroup
	entered.Add(4)
	svc := &Service{Name: "Slow", Methods: map[string]Method{
		"wait": func(call *Call, args []model.Value) []model.Value {
			entered.Done()
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
	// Once every call is in its method, all four callers wait on their
	// replies: Close must answer each with ErrClusterClosed.
	entered.Wait()
	e.c.Close()
	close(block)
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, ErrClusterClosed) {
			t.Fatalf("pending invoke after close: err = %v, want ErrClusterClosed", err)
		}
	}
	if err := mark.Settled(e.c.PendingCalls); err != nil {
		t.Fatal(err)
	}
}

// TestInvokeOnSilentLinkAroundClose: a call with the zero policy (no
// deadline, no retries) over a link that swallows its packet — a Drop: 1
// link, or a partition, whose Send reports success — ends only through
// Close. Issued after Close or racing it, every such call must fail
// with ErrClusterClosed: one that registered after Close answered the
// pending calls would wait for a reply nothing sends.
func TestInvokeOnSilentLinkAroundClose(t *testing.T) {
	links := map[string]func() *Cluster{
		"drop": func() *Cluster {
			return New(2, withOneWayLoss(2, 0, 1))
		},
		"partition": func() *Cluster {
			c := New(2, WithFaults(transport.FaultConfig{}))
			c.Network().(*transport.FaultyNetwork).Partition(0, 1)
			return c
		},
	}
	for name, mk := range links {
		for _, racing := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/racing=%v", name, racing), func(t *testing.T) {
				mark := balance.Take()
				c := mk()
				var execs atomic.Int64
				ref := c.Node(1).Export(countingService(&execs))
				cs := bumpSite(t, c)
				if !racing {
					c.Close()
				}
				const callers = 8
				errs := make(chan error, callers)
				for i := 0; i < callers; i++ {
					go func() {
						_, err := cs.Invoke(c.Node(0), ref, []model.Value{model.Int(1)})
						errs <- err
					}()
				}
				c.Close() // a no-op when already closed
				deadline := time.After(10 * time.Second)
				for i := 0; i < callers; i++ {
					select {
					case err := <-errs:
						if !errors.Is(err, ErrClusterClosed) {
							t.Errorf("err = %v, want ErrClusterClosed", err)
						}
					case <-deadline:
						t.Fatalf("%d of %d calls still waiting 10 s after Close", callers-i, callers)
					}
				}
				if n := execs.Load(); n != 0 {
					t.Errorf("%d executions over a link that delivers nothing", n)
				}
				if err := mark.Settled(c.PendingCalls); err != nil {
					t.Fatal(err)
				}
			})
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

// closingNetwork is the channel network whose send number closeAt
// closes the cluster and then delegates; the sends before it are lost.
// It puts Close between a call's registration and its frame reaching
// the transport, on the first attempt (closeAt 1) or on a retransmit.
type closingNetwork struct {
	transport.Network
	c       *Cluster
	closeAt int64
	sends   atomic.Int64
}

type closingEndpoint struct {
	transport.Endpoint
	net *closingNetwork
}

func (n *closingNetwork) Endpoint(node int) transport.Endpoint {
	return closingEndpoint{n.Network.Endpoint(node), n}
}

func (e closingEndpoint) Send(p transport.Packet) error {
	switch i := e.net.sends.Add(1); {
	case i < e.net.closeAt:
		wire.PutBuf(p.Payload)
		return nil
	case i == e.net.closeAt:
		e.net.c.Close()
	}
	return e.Endpoint.Send(p)
}

// TestSendAcrossCloseFailsClosed: a call that passed startRemote's
// closed check and whose send then meets a network Close shut is ended
// by the shutdown, so it fails with ErrClusterClosed — not with the
// transport's "network closed" — whether the send is its first attempt
// or a retransmit. Close still balances the frame pool and the pending
// table.
func TestSendAcrossCloseFailsClosed(t *testing.T) {
	for _, tc := range []struct {
		name    string
		closeAt int64
		pol     CallPolicy
	}{
		{"first", 1, CallPolicy{}},
		{"retransmit", 2, CallPolicy{Timeout: 5 * time.Millisecond, Retries: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mark := balance.Take()
			nw := &closingNetwork{Network: transport.NewChannelNetwork(2, channelDepth), closeAt: tc.closeAt}
			c := New(2, WithNetwork(nw), WithCallPolicy(tc.pol))
			nw.c = c
			var execs atomic.Int64
			ref := c.Node(1).Export(countingService(&execs))
			_, err := bumpSite(t, c).Invoke(c.Node(0), ref, []model.Value{model.Int(1)})
			if !errors.Is(err, ErrClusterClosed) {
				t.Errorf("err = %v, want ErrClusterClosed", err)
			}
			if n := nw.sends.Load(); n != tc.closeAt {
				t.Errorf("%d sends, want %d", n, tc.closeAt)
			}
			if err := mark.Settled(c.PendingCalls); err != nil {
				t.Fatal(err)
			}
		})
	}
}
