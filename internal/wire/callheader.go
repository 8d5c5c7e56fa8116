package wire

import "fmt"

// RMI frame headers: the one place that knows how a call or reply
// frame starts. Layout (little-endian, DESIGN.md §12):
//
//	call:  tag flags site obj seq nargs [trace ctx 17 B] [promises] args
//	reply: tag seq kind [nvals values | message]
//
// The trace context is present iff CallTraceCtx is set, the promise
// section iff CallPipelined is set; both sit before anything
// variable-length in the arguments, so a hardened decoder rejects a
// hostile section before any allocation happens. Everything decoded
// here is hostile input: every rejection wraps ErrMalformedFrame
// (fuzzed by FuzzCallHeader).

// Message tags: the first byte of every sealed payload.
const (
	MsgCall  = 0
	MsgReply = 1
	// Tag 2 is retired (it framed a batch container) and never reused:
	// a frame carrying it is malformed.
)

// Call header flags (the byte following the MsgCall tag).
const (
	// CallRetryable marks a call whose policy may retransmit it; only
	// these calls need a cached reply for duplicate suppression on a
	// fault-free interconnect.
	CallRetryable = 1 << 0
	// CallTraced marks a call whose invoker opened a trace span. The
	// callee mirrors it with a callee-side span, and both call and reply
	// packets carry wall-clock timestamps so each transit leg is
	// measured end to end.
	CallTraced = 1 << 1
	// Bit 2 is retired (it marked a one-way call) and never reused;
	// Decode rejects it, and the unassigned bits 6–7, as malformed.
	// CallPromised marks a call whose result the caller may reference
	// from a later pipelined call: the callee publishes the outcome in
	// its promise table (keyed by this call's (from, seq)) in addition
	// to replying normally. Sent only on links that negotiated
	// CapPipelining.
	CallPromised = 1 << 3
	// CallPipelined marks a call carrying a promise section: some
	// argument positions are named by the seq of an earlier promised
	// call instead of being serialized, and the callee splices them from
	// its promise table. Sent only on links that negotiated
	// CapPipelining.
	CallPipelined = 1 << 4
	// CallTraceCtx marks a call carrying a TraceContext: the call
	// belongs to a sampled trace and the callee's span joins the
	// cross-node call tree. Sent only on links that negotiated
	// CapTracing — a link to a peer without the bit drops the context
	// (the call still runs untraced downstream) instead of sending a
	// frame the peer would reject.
	CallTraceCtx = 1 << 5

	// callFlagsKnown is every bit a call header may carry.
	callFlagsKnown = CallRetryable | CallTraced | CallPromised | CallPipelined | CallTraceCtx
)

// Reply kinds (the byte following the reply's seq).
const (
	ReplyAck    = 0
	ReplyValues = 1
	ReplyError  = 2
	// ReplyMalformed reports that the callee's hardened decoder rejected
	// the call frame. Distinct from ReplyError so the caller can surface
	// the typed sentinel: a remote exception is the application's
	// problem, a malformed frame is a protocol/security event.
	ReplyMalformed = 3
)

const (
	// MaxTraceHops caps the hop counter carried in a trace context. A
	// legitimate chain is bounded by the program's call depth (the
	// deepest bundled workload is a depth-8 pipelined chain); 64 is far
	// above any real topology and stops a hostile or looping peer from
	// growing the counter without bound.
	MaxTraceHops = 64

	// MaxPromiseHandles caps the promise section of one call. Real call
	// sites have a handful of arguments; a count past this is hostile.
	MaxPromiseHandles = 64

	// ReplyHeaderLen is the encoded size of a reply header: tag (1) +
	// seq (8) + kind (1).
	ReplyHeaderLen = 1 + 8 + 1
)

// TraceContext is the per-request identity propagated hop to hop:
// which trace the call belongs to, which span caused it, and how many
// wire hops the trace has taken so far. It is 17 bytes on the wire
// (trace ID 8, parent span ID 8, hop 1). The sampling decision is
// carried implicitly — an unsampled call simply has no context on the
// wire — so there is no separate sampling bit to keep consistent.
type TraceContext struct {
	// TraceID names the whole cross-node tree. Allocated once at the
	// root call site; never zero on the wire (zero is the in-memory
	// "not sampled" value).
	TraceID uint64
	// Parent is the span ID of the caller-side span that issued this
	// call — the edge the callee's span hangs off when the tree is
	// reassembled. Zero only for a root span's own context.
	Parent uint64
	// Hop counts wire hops from the root (root's first call is hop 0).
	// Bounded by MaxTraceHops.
	Hop uint8
}

// Valid reports whether the context can legally appear on the wire.
func (c TraceContext) Valid() bool {
	return c.TraceID != 0 && c.Hop <= MaxTraceHops
}

// PromiseHandle names one promised argument of a pipelined call: Arg is
// the argument position it fills, Seq the producing call's sequence
// number (the caller half of the (from, seq) call id — the callee fills
// in `from` from the frame it arrived on, so one caller can never
// reference another's promises), Ret the index into the producer's
// return values. Arguments at promised positions are not serialized at
// all, so a pipelined frame is smaller than its resolved equivalent.
type PromiseHandle struct {
	Arg int32
	Seq int64
	Ret int32
}

// CallHeader is everything a call frame carries ahead of its argument
// bytes.
type CallHeader struct {
	// Flags holds the Call* bits. Encode forces CallTraceCtx on when
	// Trace is sampled and CallPipelined on when Promises is non-empty,
	// and writes a section exactly when its bit is on — a bit can never
	// travel without its section.
	Flags byte
	Site  int32
	Obj   int64
	Seq   int64
	NArgs int32
	// Trace is the distributed-trace context; zero when the call is not
	// part of a sampled trace.
	Trace TraceContext
	// Promises is the promise section, filled by DecodePromises.
	Promises []PromiseHandle
}

// wireFlags is the flags byte as it travels: the caller's bits plus
// those the optional sections imply.
func (h CallHeader) wireFlags() byte {
	f := h.Flags
	if h.Trace.TraceID != 0 {
		f |= CallTraceCtx
	}
	if len(h.Promises) > 0 {
		f |= CallPipelined
	}
	return f
}

// Encode appends the MsgCall tag and the header to m; the serialized
// arguments follow. The caller must have validated Trace (Valid) and
// Promises (distinct in-range positions); writing is infallible.
func (h CallHeader) Encode(m *Message) {
	flags := h.wireFlags()
	m.AppendByte(MsgCall)
	m.AppendByte(flags)
	m.AppendInt32(h.Site)
	m.AppendInt64(h.Obj)
	m.AppendInt64(h.Seq)
	m.AppendInt32(h.NArgs)
	if flags&CallTraceCtx != 0 {
		m.AppendInt64(int64(h.Trace.TraceID))
		m.AppendInt64(int64(h.Trace.Parent))
		m.AppendByte(h.Trace.Hop)
	}
	if flags&CallPipelined != 0 {
		m.AppendInt32(int32(len(h.Promises)))
		for _, p := range h.Promises {
			m.AppendInt32(p.Arg)
			m.AppendInt64(p.Seq)
			m.AppendInt32(p.Ret)
		}
	}
}

// Decode reads the fixed header and the trace context from m, whose tag
// byte the receive loop already consumed to route the frame. It stops
// short of the promise section: a receiver runs its duplicate check on
// Seq first, so a redelivered call costs no section decode
// (DecodePromises picks up from here). On error the fields read so far
// stay set — Seq lets the receiver address a best-effort rejection —
// and m is left failed so the enclosing frame decode aborts. A flag bit
// outside callFlagsKnown fails the header.
func (h *CallHeader) Decode(m *Message) error {
	h.Flags = m.ReadU8()
	h.Site = m.ReadInt32()
	h.Obj = m.ReadInt64()
	h.Seq = m.ReadInt64()
	h.NArgs = m.ReadInt32()
	if h.Flags&^callFlagsKnown != 0 {
		m.Fail(fmt.Errorf("%w: unknown call flags %#x", ErrMalformedFrame, h.Flags&^callFlagsKnown))
	}
	if h.Flags&CallTraceCtx != 0 {
		h.Trace = readTraceContext(m)
	}
	return m.Err()
}

// readTraceContext decodes a trace context at m's read position,
// failing m on truncated bytes, a zero trace ID or an over-limit hop
// count.
func readTraceContext(m *Message) TraceContext {
	c := TraceContext{TraceID: uint64(m.ReadInt64()), Parent: uint64(m.ReadInt64()), Hop: m.ReadU8()}
	switch {
	case m.Err() != nil:
	case c.TraceID == 0:
		m.Fail(fmt.Errorf("%w: zero trace id in trace context", ErrMalformedFrame))
	case c.Hop > MaxTraceHops:
		m.Fail(fmt.Errorf("%w: trace context hop count %d (cap %d)", ErrMalformedFrame, c.Hop, MaxTraceHops))
	default:
		return c
	}
	return TraceContext{}
}

// DecodePromises reads and validates the promise section that follows
// a decoded header whose CallPipelined bit is set (a no-op otherwise).
// The count is capped, every handle must target a distinct argument
// position inside [0, NArgs), and Ret must be a plausible return index.
func (h *CallHeader) DecodePromises(m *Message) error {
	if h.Flags&CallPipelined == 0 {
		return nil
	}
	nargs := int(h.NArgs)
	n := int(m.ReadInt32())
	if err := m.Err(); err != nil {
		return err
	}
	if n < 0 || n > MaxPromiseHandles {
		return fmt.Errorf("%w: promise handle count %d (cap %d)", ErrMalformedFrame, n, MaxPromiseHandles)
	}
	if n > nargs {
		return fmt.Errorf("%w: %d promise handles for %d arguments", ErrMalformedFrame, n, nargs)
	}
	if n == 0 {
		return nil
	}
	ps := make([]PromiseHandle, 0, n)
	for i := 0; i < n; i++ {
		p := PromiseHandle{Arg: m.ReadInt32(), Seq: m.ReadInt64(), Ret: m.ReadInt32()}
		if err := m.Err(); err != nil {
			return err
		}
		if p.Arg < 0 || int(p.Arg) >= nargs {
			return fmt.Errorf("%w: promise handle %d targets argument %d of %d", ErrMalformedFrame, i, p.Arg, nargs)
		}
		for _, prev := range ps {
			if prev.Arg == p.Arg {
				return fmt.Errorf("%w: duplicate promise handle for argument %d", ErrMalformedFrame, p.Arg)
			}
		}
		if p.Ret < 0 || p.Ret >= MaxPromiseHandles {
			return fmt.Errorf("%w: promise handle %d return index %d", ErrMalformedFrame, i, p.Ret)
		}
		ps = append(ps, p)
	}
	h.Promises = ps
	return nil
}

// AppendReplyHeader appends a reply header to m: the MsgReply tag, the
// seq of the call it answers, and the reply kind. ReplyValues is
// followed by an int32 value count and the values, ReplyError and
// ReplyMalformed by one string, ReplyAck by nothing.
func AppendReplyHeader(m *Message, seq int64, kind byte) {
	m.AppendByte(MsgReply)
	m.AppendInt64(seq)
	m.AppendByte(kind)
}

// ReadReplyHeader reads a reply header from m, whose tag byte the
// receive loop already consumed; the body starts ReplyHeaderLen bytes
// into the payload. A short header leaves m failed.
func ReadReplyHeader(m *Message) (seq int64, kind byte) {
	return m.ReadInt64(), m.ReadU8()
}
