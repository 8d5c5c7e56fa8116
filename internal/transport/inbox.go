package transport

import (
	"sync/atomic"

	"cormi/internal/wire"
)

// inbox is one node's bounded packet queue, shared by both transports.
// Every wait on it is one channel operation: close never closes ch (a
// put may be mid-send); it sets closed and posts wakeUp, so a receiver
// parked on the empty ch wakes on the channel it waits on. Packets
// queued before close still drain; then every get reports closure.
type inbox struct {
	ch     chan Packet
	done   chan struct{} // closed by close; frees a put blocked on a full ch
	closed atomic.Bool
}

func newInbox(depth int) inbox {
	return inbox{ch: make(chan Packet, depth), done: make(chan struct{})}
}

// wakeUp is close's token: both transports set a real packet's To to
// its receiver's id.
var wakeUp = Packet{To: -1}

// put queues p, blocking only while ch is full, or reports ErrClosed
// and leaves p to the caller. A put that lands as close runs releases
// all that is queued: the receiver may already have left.
func (b *inbox) put(p Packet) error {
	if b.closed.Load() {
		return ErrClosed
	}
	select {
	case b.ch <- p:
	default:
		select {
		case b.ch <- p:
		case <-b.done:
			return ErrClosed
		}
	}
	if b.closed.Load() {
		b.drain()
	}
	return nil
}

// get takes the next packet; ok is false on taking the token, or once
// the inbox is closed and empty.
func (b *inbox) get() (Packet, bool) {
	var p Packet
	select {
	case p = <-b.ch:
	default:
		if b.closed.Load() {
			return Packet{}, false
		}
		p = <-b.ch
	}
	return p, p.To >= 0
}

func (b *inbox) close() {
	if !b.closed.Swap(true) {
		close(b.done)
		b.wake()
	}
}

// wake posts the token unless ch is full: then no receiver is parked,
// and the next one finds packets, and after them the closed flag.
func (b *inbox) wake() {
	select {
	case b.ch <- wakeUp:
	default:
	}
}

// drain releases every queued packet, then reposts the token, so a
// receiver parked since before close is not stranded by one it took.
func (b *inbox) drain() {
	for {
		select {
		case p := <-b.ch:
			wire.PutBuf(p.Payload)
		default:
			select {
			case b.ch <- wakeUp:
				return
			default: // refilled since; drain again
			}
		}
	}
}
