package wire

import "fmt"

// RMI frame headers: the one place that knows how a call or reply
// frame starts. Layout (little-endian, DESIGN.md §12):
//
//	call:  tag flags site obj seq nargs [trace ctx 9 B] args
//	reply: tag seq kind [nvals values | message]
//
// The trace context is present iff CallTraceCtx is set; it sits before
// anything variable-length in the arguments, so a hardened decoder
// rejects a hostile context before any allocation happens. Everything
// decoded here is hostile input: every rejection wraps
// ErrMalformedFrame (fuzzed by FuzzCallHeader).

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
	// Bits 1–4 are retired and never reused: bit 1 marked a call whose
	// invoker opened a trace span (protocol 1; the packet's nonzero
	// wall stamp says so now), bit 2 a one-way call, bit 3 a call whose
	// result a later call could name as a promise, bit 4 a call carrying
	// such promise handles in place of arguments. Decode rejects them,
	// and the unassigned bits 6–7, as malformed.
	// CallTraceCtx marks a call carrying a TraceContext: the call
	// belongs to a sampled trace and the callee's span joins the
	// cross-node call tree. A call past MaxTraceHops drops the context
	// (the call still runs untraced downstream).
	CallTraceCtx = 1 << 5

	// callFlagsKnown is every bit a call header may carry.
	callFlagsKnown = CallRetryable | CallTraceCtx
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
	// legitimate chain is bounded by the program's nesting depth (the
	// deepest bundled scenario nests two hops); 64 is far above any real
	// topology and stops a hostile or looping peer from growing the
	// counter without bound.
	MaxTraceHops = 64

	// ReplyHeaderLen is the encoded size of a reply header: tag (1) +
	// seq (8) + kind (1).
	ReplyHeaderLen = 1 + 8 + 1
)

// TraceContext is the per-request identity propagated hop to hop:
// which trace the call belongs to and how many wire hops the trace has
// taken so far. It is 9 bytes on the wire (trace ID 8, hop 1). The
// call's own (sender, seq) id names the caller span the callee's span
// hangs off, so the context carries no span ID. The sampling decision
// is carried implicitly — an unsampled call simply has no context on
// the wire — so there is no separate sampling bit to keep consistent.
type TraceContext struct {
	// TraceID names the whole cross-node tree. Allocated once at the
	// root call site; never zero on the wire (zero is the in-memory
	// "not sampled" value).
	TraceID uint64
	// Hop counts wire hops from the root (root's first call is hop 0).
	// Bounded by MaxTraceHops.
	Hop uint8
}

// CallHeader is everything a call frame carries ahead of its argument
// bytes.
type CallHeader struct {
	// Flags holds the Call* bits. Encode forces CallTraceCtx on when
	// Trace is sampled and writes the context exactly when the bit is
	// on — the bit can never travel without its context.
	Flags byte
	Site  int32
	Obj   int64
	Seq   int64
	NArgs int32
	// Trace is the distributed-trace context; zero when the call is not
	// part of a sampled trace.
	Trace TraceContext
}

// Encode appends the MsgCall tag and the header to m; the serialized
// arguments follow. Trace must be wire-legal (a nonzero TraceID, Hop
// at most MaxTraceHops), as the decoder enforces; writing is
// infallible.
func (h CallHeader) Encode(m *Message) {
	flags := h.Flags
	if h.Trace.TraceID != 0 {
		flags |= CallTraceCtx
	}
	m.AppendByte(MsgCall)
	m.AppendByte(flags)
	m.AppendInt32(h.Site)
	m.AppendInt64(h.Obj)
	m.AppendInt64(h.Seq)
	m.AppendInt32(h.NArgs)
	if flags&CallTraceCtx != 0 {
		m.AppendInt64(int64(h.Trace.TraceID))
		m.AppendByte(h.Trace.Hop)
	}
}

// Decode reads the fixed header and the trace context from m, whose tag
// byte the receive loop already consumed to route the frame. On error
// the fields read so far stay set — Seq lets the receiver address a
// best-effort rejection — and m is left failed so the enclosing frame
// decode aborts. A flag bit outside callFlagsKnown fails the header.
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
	c := TraceContext{TraceID: uint64(m.ReadInt64()), Hop: m.ReadU8()}
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
