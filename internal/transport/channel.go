package transport

import (
	"fmt"

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
// Shutdown protocol: Close closes every inbox, which wakes its parked
// receiver on the inbox channel itself; queued packets still drain.
type ChannelNetwork struct {
	inboxes []inbox
	eps     []*channelEndpoint
}

// NewChannelNetwork creates a network of n nodes with the given
// per-node inbox buffer depth (the paper's GM layer queues pending
// messages similarly).
func NewChannelNetwork(n, depth int) *ChannelNetwork {
	if depth <= 0 {
		depth = 256
	}
	cn := &ChannelNetwork{
		inboxes: make([]inbox, n),
		eps:     make([]*channelEndpoint, n),
	}
	for i := range cn.inboxes {
		cn.inboxes[i] = newInbox(depth)
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
	for i := range cn.inboxes {
		cn.inboxes[i].close()
	}
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
	return e.net.inboxes[p.To].put(p)
}

func (e *channelEndpoint) Recv() (Packet, bool) {
	p, ok := e.net.inboxes[e.id].get()
	return stampRecv(p), ok
}
