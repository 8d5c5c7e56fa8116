package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func testNetwork(t *testing.T, mk func(n int) (Network, error)) {
	t.Helper()
	nw, err := mk(3)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	if nw.Size() != 3 {
		t.Fatalf("Size = %d", nw.Size())
	}

	// Point-to-point with timestamp.
	e0, e1 := nw.Endpoint(0), nw.Endpoint(1)
	if err := e0.Send(Packet{To: 1, TS: 42, Payload: []byte("hello")}); err != nil {
		t.Fatal(err)
	}
	p, ok := e1.Recv()
	if !ok || p.From != 0 || p.To != 1 || p.TS != 42 || string(p.Payload) != "hello" {
		t.Fatalf("got %+v ok=%v", p, ok)
	}

	// Many concurrent senders to one receiver; all must arrive.
	const per = 50
	var wg sync.WaitGroup
	for s := 0; s < 3; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ep := nw.Endpoint(s)
			for i := 0; i < per; i++ {
				if err := ep.Send(Packet{To: 2, Payload: []byte(fmt.Sprintf("%d/%d", s, i))}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(s)
	}
	got := make(map[string]bool)
	done := make(chan struct{})
	go func() {
		defer close(done)
		e2 := nw.Endpoint(2)
		for len(got) < 3*per {
			p, ok := e2.Recv()
			if !ok {
				return
			}
			got[string(p.Payload)] = true
		}
	}()
	wg.Wait()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("timeout: received %d of %d", len(got), 3*per)
	}
	if len(got) != 3*per {
		t.Fatalf("received %d distinct messages, want %d", len(got), 3*per)
	}

	// Invalid destination.
	if err := e0.Send(Packet{To: 99}); err == nil {
		t.Fatal("send to unknown node succeeded")
	}
}

func TestChannelNetwork(t *testing.T) {
	testNetwork(t, func(n int) (Network, error) {
		return NewChannelNetwork(n, 16), nil
	})
}

func TestTCPNetwork(t *testing.T) {
	testNetwork(t, func(n int) (Network, error) {
		return NewTCPNetworkLocal(n)
	})
}

func TestChannelNetworkClose(t *testing.T) {
	nw := NewChannelNetwork(2, 4)
	e0, e1 := nw.Endpoint(0), nw.Endpoint(1)
	if err := e0.Send(Packet{To: 1, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	nw.Close()
	// Pending message still drains, then the channel reports closed.
	if p, ok := e1.Recv(); !ok || string(p.Payload) != "x" {
		t.Fatalf("drain failed: %+v %v", p, ok)
	}
	if _, ok := e1.Recv(); ok {
		t.Fatal("Recv after close should report !ok")
	}
	if err := e0.Send(Packet{To: 1}); err != ErrClosed {
		t.Fatalf("Send after close = %v, want ErrClosed", err)
	}
	// Double close is fine.
	if err := nw.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTCPNetworkClose(t *testing.T) {
	nw, err := NewTCPNetworkLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	e0 := nw.Endpoint(0)
	if err := e0.Send(Packet{To: 1, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	nw.Close()
	if err := e0.Send(Packet{To: 1}); err == nil {
		t.Fatal("Send after close succeeded")
	}
	if err := nw.Close(); err != nil {
		t.Fatal(err)
	}
}

// shutdownNets runs f on a fresh two-node network of each transport,
// with node 1's inbox.
func shutdownNets(t *testing.T, f func(t *testing.T, nw Network, in *inbox)) {
	t.Run("channel", func(t *testing.T) {
		cn := NewChannelNetwork(2, 8)
		f(t, cn, &cn.inboxes[1])
	})
	t.Run("tcp", func(t *testing.T) {
		tn, err := NewTCPNetworkLocal(2)
		if err != nil {
			t.Fatal(err)
		}
		f(t, tn, &tn.eps[1].in)
	})
}

// TestCloseDrainsFullInbox: an inbox filled to its depth before Close,
// so that Close's wake-up finds no room, still hands out every queued
// packet in order, and then reports closure on every later Recv.
func TestCloseDrainsFullInbox(t *testing.T) {
	shutdownNets(t, func(t *testing.T, nw Network, in *inbox) {
		depth := cap(in.ch)
		e0, e1 := nw.Endpoint(0), nw.Endpoint(1)
		for i := 0; i < depth; i++ {
			if err := e0.Send(Packet{To: 1, Payload: []byte{byte(i)}}); err != nil {
				t.Fatal(err)
			}
		}
		// TCP queues through its read loop; wait until all have landed.
		for i := 0; i < 10_000 && len(in.ch) < depth; i++ {
			time.Sleep(time.Millisecond)
		}
		if len(in.ch) != depth {
			t.Fatalf("inbox holds %d packets, want its depth %d", len(in.ch), depth)
		}
		nw.Close()
		for i := 0; i < depth; i++ {
			if p, ok := e1.Recv(); !ok || len(p.Payload) != 1 || p.Payload[0] != byte(i) {
				t.Fatalf("Recv %d after Close = %v, %v; want packet %d", i, p.Payload, ok, i)
			}
		}
		for i := 0; i < 2; i++ {
			if p, ok := e1.Recv(); ok {
				t.Fatalf("Recv on a drained, closed inbox returned %+v", p)
			}
		}
	})
}

// TestCloseWakesParkedRecv: a Recv parked on an empty inbox returns
// !ok once Close posts its wake-up on the channel the Recv waits on.
func TestCloseWakesParkedRecv(t *testing.T) {
	shutdownNets(t, func(t *testing.T, nw Network, _ *inbox) {
		got := make(chan bool)
		go func() {
			_, ok := nw.Endpoint(1).Recv()
			got <- ok
		}()
		select {
		case ok := <-got:
			t.Fatalf("Recv on an empty, open inbox returned ok=%v", ok)
		case <-time.After(20 * time.Millisecond): // let it park
		}
		nw.Close()
		select {
		case ok := <-got:
			if ok {
				t.Fatal("Recv woken by Close reported a packet")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Close left a parked Recv waiting")
		}
	})
}

// TestDrainKeepsWakeUp: a put that lands as Close runs drains the
// inbox, Close's wake-up included, and must leave a wake-up behind: a
// receiver that read the closed flag before Close set it parks on the
// channel and has nothing else to wake it. (The race is too narrow for
// the concurrent Close tests to hit reliably, so it is checked here.)
func TestDrainKeepsWakeUp(t *testing.T) {
	b := newInbox(4)
	b.ch <- Packet{To: 0, Payload: []byte("late")}
	b.close()
	b.drain()
	select {
	case p := <-b.ch:
		if p.To >= 0 || len(b.ch) != 0 {
			t.Fatalf("after drain the inbox holds %+v and %d more, want only the wake-up", p, len(b.ch))
		}
	default:
		t.Fatal("drain swallowed Close's wake-up")
	}
}

func TestLargePayloadTCP(t *testing.T) {
	nw, err := NewTCPNetworkLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := nw.Endpoint(0).Send(Packet{To: 1, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	p, ok := nw.Endpoint(1).Recv()
	if !ok || len(p.Payload) != len(payload) {
		t.Fatalf("large payload: ok=%v len=%d", ok, len(p.Payload))
	}
	for i := range p.Payload {
		if p.Payload[i] != byte(i) {
			t.Fatalf("corrupt byte at %d", i)
		}
	}
}
