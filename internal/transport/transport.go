// Package transport provides the cluster interconnect. Two
// implementations exist: an in-process channel network (the default —
// it stands in for the user-level GM layer on Myrinet, with the virtual
// cost model supplying the timing) and a TCP network for genuinely
// distributed runs.
package transport

import (
	"errors"
	"time"
)

// ErrClosed is returned when sending over a closed network.
var ErrClosed = errors.New("transport: network closed")

// stampRecv records the wall-clock receive time on traced packets
// (Wall != 0). Untraced packets pass through untouched — no clock
// read on the hot path.
func stampRecv(p Packet) Packet {
	if p.Wall != 0 {
		p.RecvWall = time.Now().UnixNano()
	}
	return p
}

// Packet is one message between nodes. TS is the sender's virtual send
// timestamp in nanoseconds; the receiver syncs its clock with
// TS + wire delay to preserve causality in the virtual-time model.
//
// Wall and RecvWall are the observability layer's wall-clock
// timestamps (nanoseconds since the Unix epoch, internal/trace.Now):
// a traced sender stamps Wall before Send, and every transport stamps
// RecvWall on the receive side — but only for packets whose Wall is
// nonzero, so untraced traffic pays one predictable branch and no
// clock read. The pair lets the receiver measure real network +
// queueing transit per packet, independent of the virtual cost model.
//
// Payload ownership follows the wire-pool protocol (wire.GetBuf /
// wire.PutBuf, DESIGN.md §8): Send takes ownership of Payload, Recv
// hands ownership to the receiver.
type Packet struct {
	From, To int
	TS       int64
	Wall     int64 // wall-clock send time; 0 = untraced
	RecvWall int64 // wall-clock receive time, transport-stamped when Wall != 0
	Payload  []byte
}

// Endpoint is a node's attachment to the network.
type Endpoint interface {
	// Send delivers a packet; it must be safe for concurrent use.
	// Send takes ownership of p.Payload: once it returns — success or
	// error — the caller must neither read nor write the buffer again.
	// A sender that needs the bytes later (retransmits) keeps its own
	// copy. Implementations either hand the buffer through to the
	// receiver unchanged (ChannelNetwork) or copy it onto the wire and
	// release it to the frame pool (TCPNetwork); a Send that fails, or
	// that a FaultyNetwork drops, releases it too.
	Send(p Packet) error
	// Recv blocks for the next packet; Close wakes one parked on an
	// empty endpoint. After Close it returns the packets queued before
	// it, then ok is false on every later call. The receiver owns
	// p.Payload and should return it with wire.PutBuf once nothing
	// references it; data that must outlive the frame is copied out.
	Recv() (p Packet, ok bool)
}

// Network connects a fixed set of nodes, numbered 0..Size()-1.
type Network interface {
	Endpoint(node int) Endpoint
	Size() int
	Close() error
}
