package wire

import (
	"sync"
	"sync/atomic"
)

// Buffer and message pooling for the zero-allocation RMI hot path.
//
// Ownership protocol (see also transport.Endpoint and DESIGN.md §8):
//
//   - A writer obtains a pooled message with Get, fills it, seals it in
//     place (SealFrame) and Detaches the buffer into the transport; the
//     struct returns to the pool immediately, the buffer travels.
//   - Endpoint.Send takes ownership of the payload: after Send returns
//     the sender must neither read nor write the buffer. A sender that
//     needs the bytes again (retransmits) keeps its own private copy.
//   - The receiver of a packet owns the payload and returns it with
//     PutBuf once nothing references it anymore. Anything that must
//     outlive the frame (reply caches, user object graphs) is copied
//     out, never aliased.
//
// Two pools cooperate: msgPool recycles Message structs (always reset
// and bufless: Detach hands the buffer to the transport, Release to
// bufFree; Get attaches one), and bufFree recycles the byte buffers
// themselves. The buffer free list is a channel rather than a
// sync.Pool because a []byte stored in an interface box allocates its
// slice header on every Put — a channel of slices keeps Put/Get
// allocation free, which is the whole point.

const (
	// defaultBufCap sizes fresh buffers; pooled buffers keep whatever
	// capacity they grew to, so steady-state traffic stops growing.
	defaultBufCap = 512
	// maxPooledBufCap keeps one huge frame from pinning megabytes in
	// the free list forever.
	maxPooledBufCap = 1 << 20
	// bufFreeDepth bounds the free list; overflow falls to the GC.
	bufFreeDepth = 1024
)

var msgPool = sync.Pool{New: func() any { return new(Message) }}

var bufFree = make(chan []byte, bufFreeDepth)

// Pool debug gauges: lifetime GetBuf/PutBuf call counts. Their
// difference is the number of buffers currently owned by callers — a
// steadily growing gap means someone breaks the ownership protocol and
// leaks frames. The counters sit on separate cache lines so the two
// atomic adds per frame never contend with each other.
var (
	bufGets struct {
		atomic.Int64
		_ [56]byte
	}
	bufPuts struct {
		atomic.Int64
		_ [56]byte
	}
)

// PoolStats is a snapshot of the frame pool's debug gauges.
type PoolStats struct {
	Gets        int64 // lifetime GetBuf calls
	Puts        int64 // lifetime PutBuf calls (nil puts excluded)
	Outstanding int64 // Gets - Puts: buffers currently owned by callers
}

// Stats reports the frame pool's get/put balance. The gauge is
// surfaced on the /metrics endpoint and checked by the leak test;
// Outstanding can transiently exceed zero while frames are in flight,
// but must return to a small constant at quiescence.
func Stats() PoolStats {
	g, p := bufGets.Load(), bufPuts.Load()
	return PoolStats{Gets: g, Puts: p, Outstanding: g - p}
}

// GetBuf returns a buffer of length n from the frame pool (allocating
// only when the pool is empty or too small).
func GetBuf(n int) []byte {
	bufGets.Add(1)
	var b []byte
	select {
	case b = <-bufFree:
	default:
	}
	// b == nil: an empty free list must not turn GetBuf(0) into a nil
	// slice, whose PutBuf is a no-op that would leave the get unmatched.
	if b == nil || cap(b) < n {
		c := n
		if c < defaultBufCap {
			c = defaultBufCap
		}
		b = make([]byte, n, c)
		return b
	}
	return b[:n]
}

// PutBuf returns a frame buffer to the pool. The caller must own b
// exclusively: no other goroutine may hold a view into it. PutBuf(nil)
// is a no-op, as is putting a buffer too large to retain.
func PutBuf(b []byte) {
	if b == nil {
		return
	}
	bufPuts.Add(1)
	if cap(b) > maxPooledBufCap {
		// Ownership was still returned — the buffer just falls to the GC
		// instead of the free list.
		return
	}
	select {
	case bufFree <- b[:0]:
	default:
	}
}

// Get returns a pooled message ready for appending. Release it with
// Release (buffer back to the frame pool) or Detach (buffer handed off
// to the transport).
func Get() *Message {
	m := msgPool.Get().(*Message)
	m.buf = GetBuf(0)
	return m
}

// Release returns the message to the message pool and its buffer to
// the frame pool. Structs in msgPool are always bufless: a buffer left
// attached would stay counted in Stats().Outstanding and be lost
// outright when GetReader repoints the struct or the GC empties the
// sync.Pool. The caller must not touch m afterwards.
func (m *Message) Release() {
	PutBuf(m.Detach())
}

// Detach hands the caller ownership of the encoded buffer and returns
// the bufless struct to the message pool. The typical sender sequence
// is SealFrame, Detach, Endpoint.Send.
func (m *Message) Detach() []byte {
	b := m.buf
	m.buf = nil
	m.pos = 0
	m.err = nil
	msgPool.Put(m)
	return b
}

// GetReader returns a pooled message wrapping b for reading. It does
// NOT take ownership of b; ReleaseReader returns only the struct.
func GetReader(b []byte) *Message {
	m := msgPool.Get().(*Message)
	m.buf = b
	m.pos = 0
	m.err = nil
	return m
}

// ReleaseReader detaches the wrapped buffer (which the caller still
// owns) and returns the struct to the message pool.
func (m *Message) ReleaseReader() {
	m.buf = nil
	m.pos = 0
	m.err = nil
	msgPool.Put(m)
}
