package transport

import (
	"fmt"
	"sync"

	"cormi/internal/wire"
)

// ChannelNetwork is an in-process network: one buffered inbox channel
// per node. It is the default interconnect for single-process cluster
// simulations and for tests.
//
// Buffer ownership: Send hands the payload buffer through to the
// receiver zero-copy — the sender gives up ownership (Endpoint.Send
// contract) and the receiver releases the buffer to the wire pool when
// done; a Send that fails releases it itself. Packets still queued when
// the last receiver leaves simply fall to the garbage collector.
//
// Shutdown protocol: Close never closes the inbox channels (a send
// blocked on a full inbox would race with the close); instead it
// closes a broadcast `done` channel that every blocked Send and Recv
// selects on. Packets already queued still drain after Close; a Send
// that enqueues after Close releases what is queued for its receiver,
// which may already have drained and left.
type ChannelNetwork struct {
	inboxes []chan Packet
	eps     []*channelEndpoint
	done    chan struct{}

	mu     sync.Mutex
	closed bool
}

// NewChannelNetwork creates a network of n nodes with the given
// per-node inbox buffer depth (the paper's GM layer queues pending
// messages similarly).
func NewChannelNetwork(n, depth int) *ChannelNetwork {
	if depth <= 0 {
		depth = 256
	}
	cn := &ChannelNetwork{
		inboxes: make([]chan Packet, n),
		eps:     make([]*channelEndpoint, n),
		done:    make(chan struct{}),
	}
	for i := range cn.inboxes {
		cn.inboxes[i] = make(chan Packet, depth)
		cn.eps[i] = &channelEndpoint{net: cn, id: i}
	}
	return cn
}

// Size returns the node count.
func (cn *ChannelNetwork) Size() int { return len(cn.inboxes) }

// Endpoint returns node's attachment.
func (cn *ChannelNetwork) Endpoint(node int) Endpoint { return cn.eps[node] }

// Close shuts the network down; blocked senders fail with ErrClosed
// and receivers drain queued packets before reporting closure.
func (cn *ChannelNetwork) Close() error {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.closed {
		return nil
	}
	cn.closed = true
	close(cn.done)
	return nil
}

type channelEndpoint struct {
	net *ChannelNetwork
	id  int
}

func (e *channelEndpoint) Send(p Packet) error {
	err := e.send(p)
	if err != nil {
		// Undelivered, but the sender gave up ownership all the same.
		wire.PutBuf(p.Payload)
	}
	return err
}

func (e *channelEndpoint) send(p Packet) error {
	if p.To < 0 || p.To >= len(e.net.inboxes) {
		return fmt.Errorf("transport: no node %d", p.To)
	}
	p.From = e.id
	select {
	case <-e.net.done:
		return ErrClosed
	default:
	}
	select {
	case e.net.inboxes[p.To] <- p:
		select {
		case <-e.net.done:
			// Close raced this send: the receiver may already have
			// drained and left, so reclaim what it would never read.
			e.net.drain(p.To)
		default:
		}
		return nil
	case <-e.net.done:
		return ErrClosed
	}
}

// drain releases every packet queued for node.
func (cn *ChannelNetwork) drain(node int) {
	for {
		select {
		case p := <-cn.inboxes[node]:
			wire.PutBuf(p.Payload)
		default:
			return
		}
	}
}

func (e *channelEndpoint) Recv() (Packet, bool) {
	select {
	case p := <-e.net.inboxes[e.id]:
		return stampRecv(p), true
	case <-e.net.done:
		// Drain anything already queued before reporting closure.
		select {
		case p := <-e.net.inboxes[e.id]:
			return stampRecv(p), true
		default:
			return Packet{}, false
		}
	}
}

func (e *channelEndpoint) Close() error { return e.net.Close() }
