package wire

import (
	"bytes"
	"errors"
	"testing"
)

// rawHeader hand-assembles a call header with the given flags and
// argument count followed by arbitrary section bytes — the way to put
// sections on the wire that Encode would never write.
func rawHeader(flags byte, nargs int32, sections ...[]byte) []byte {
	m := NewMessage(64)
	m.AppendByte(MsgCall)
	m.AppendByte(flags)
	m.AppendInt32(1)
	m.AppendInt64(2)
	m.AppendInt64(3)
	m.AppendInt32(nargs)
	b := m.Bytes()
	for _, s := range sections {
		b = append(b, s...)
	}
	return b
}

// ctxBytes writes a trace context's 9 wire bytes, whatever its values.
func ctxBytes(c TraceContext) []byte {
	m := NewMessage(9)
	m.AppendInt64(int64(c.TraceID))
	m.AppendByte(c.Hop)
	return m.Bytes()
}

// v1TracedHeader is a protocol 1 traced call header, retryable: bit 1
// and a 17-byte context with a parent span ID. Decode rejects it.
func v1TracedHeader() []byte {
	m := NewMessage(64)
	refEncodeCall(m, refCall{retryable: true, traced: true, site: 1, obj: 2, seq: 3, nargs: 1,
		wireCtx: refTraceContext{TraceID: 0x1122334455667788, Parent: 0x99aabbccddeeff00, Hop: 1}})
	return m.Bytes()
}

// A peer built while promise pipelining existed set call flag bit 3 on
// a call whose result a later call could name, and bit 4 on a call
// carrying a promise section after the trace context: a count, then
// (arg int32, seq int64, ret int32) per handle. Both bits are retired;
// Decode rejects any frame carrying them.
const (
	retiredPromised  = 1 << 3
	retiredPipelined = 1 << 4
)

type retiredHandle struct {
	arg, ret int32
	seq      int64
}

// promiseBytes writes a retired promise section whose declared count
// need not match the handles that follow.
func promiseBytes(count int32, hs ...retiredHandle) []byte {
	m := NewMessage(64)
	m.AppendInt32(count)
	for _, h := range hs {
		m.AppendInt32(h.arg)
		m.AppendInt64(h.seq)
		m.AppendInt32(h.ret)
	}
	return m.Bytes()
}

// retiredFrames are the promise-carrying call headers FuzzCallHeader
// seeded while the section was decoded: well-formed (alone and behind a
// context), empty, over the old cap of 64, a duplicated position, an
// out-of-range position, a bad return index, truncated.
func retiredFrames() [][]byte {
	three := []retiredHandle{{arg: 0, seq: 42}, {arg: 2, seq: 7, ret: 3}, {arg: 3, seq: 1 << 40, ret: 1}}
	return [][]byte{
		rawHeader(retiredPromised|retiredPipelined, 4, promiseBytes(3, three...)),
		rawHeader(retiredPipelined|CallTraceCtx, 4, ctxBytes(TraceContext{TraceID: 8, Hop: 1}), promiseBytes(1, three[0])),
		rawHeader(retiredPipelined, 4, promiseBytes(0)),
		rawHeader(retiredPipelined, 100, promiseBytes(65)),
		rawHeader(retiredPipelined, 4, promiseBytes(2, retiredHandle{arg: 1}, retiredHandle{arg: 1})),
		rawHeader(retiredPipelined, 4, promiseBytes(1, retiredHandle{arg: 4})),
		rawHeader(retiredPipelined, 4, promiseBytes(1, retiredHandle{arg: 0, ret: 64})),
		rawHeader(retiredPipelined, 4, promiseBytes(2, retiredHandle{arg: 0})),
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	cases := []TraceContext{
		{TraceID: 1, Hop: 0},
		{TraceID: 0xdeadbeefcafef00d, Hop: 3},
		{TraceID: ^uint64(0), Hop: MaxTraceHops},
	}
	for _, c := range cases {
		b := encodeHeader(CallHeader{Trace: c})
		got, used, err := decodeHeader(b)
		if err != nil {
			t.Fatalf("Decode(%+v): %v", c, err)
		}
		if got.Trace != c || got.Flags != CallTraceCtx {
			t.Fatalf("round trip: got %+v flags %#x, want %+v", got.Trace, got.Flags, c)
		}
		if used != len(b) {
			t.Fatalf("%d bytes left after context", len(b)-used)
		}
	}
}

func TestTraceContextRejections(t *testing.T) {
	valid := ctxBytes(TraceContext{TraceID: 42, Hop: 1})
	cases := map[string][]byte{
		"empty":     {},
		"truncated": valid[:len(valid)-1],
		"short id":  valid[:7],
		"zero id":   ctxBytes(TraceContext{TraceID: 0, Hop: 1}),
		"hop cap":   ctxBytes(TraceContext{TraceID: 42, Hop: MaxTraceHops + 1}),
	}
	for name, b := range cases {
		m := FromBytes(rawHeader(CallTraceCtx, 1, b)[1:])
		var h CallHeader
		if err := h.Decode(m); !errors.Is(err, ErrMalformedFrame) {
			t.Errorf("%s: err = %v, want ErrMalformedFrame", name, err)
		}
		if m.Err() == nil {
			t.Errorf("%s: message not failed after rejection", name)
		}
		if h.Trace != (TraceContext{}) || h.Seq != 3 {
			t.Errorf("%s: rejected header = %+v, want no context and the seq read so far", name, h)
		}
	}
}

// TestTraceContextValid pins which trace contexts are wire-legal: the
// call-header decoder accepts a context with a trace ID and a hop up to
// MaxTraceHops, and rejects a zero trace ID or a deeper hop.
func TestTraceContextValid(t *testing.T) {
	for _, tc := range []struct {
		ctx   TraceContext
		legal bool
	}{
		{TraceContext{}, false},
		{TraceContext{TraceID: 1}, true},
		{TraceContext{TraceID: 1, Hop: MaxTraceHops}, true},
		{TraceContext{TraceID: 1, Hop: MaxTraceHops + 1}, false},
	} {
		m := NewMessage(0)
		CallHeader{Flags: CallTraceCtx, Trace: tc.ctx}.Encode(m)
		h, _, err := decodeHeader(m.Bytes())
		if legal := err == nil; legal != tc.legal || legal && h.Trace != tc.ctx {
			t.Errorf("%+v: decoded %+v, err %v; want legal=%v", tc.ctx, h.Trace, err, tc.legal)
		}
	}
}

// TestReadPromisesRejects: every promise section an older peer could
// send, well-formed or not, and a promised call without one, is a
// malformed header that keeps the Seq it read.
func TestReadPromisesRejects(t *testing.T) {
	frames := append(retiredFrames(), rawHeader(retiredPromised, 1))
	for i, b := range frames {
		h, _, err := decodeHeader(b)
		if !errors.Is(err, ErrMalformedFrame) {
			t.Errorf("frame %d (flags %08b): err = %v, want ErrMalformedFrame", i, b[1], err)
		}
		if h.Seq != 3 {
			t.Errorf("frame %d: rejected header kept Seq %d, want 3", i, h.Seq)
		}
	}
}

// checkCallHeader is the hardening contract of the header decoder on
// arbitrary bytes: no panic, every rejection a typed ErrMalformedFrame,
// every accepted header wire-legal and re-encoding to exactly the bytes
// the decoder consumed (it accepts nothing Encode cannot produce), and
// the frame pool balanced afterwards.
func checkCallHeader(t *testing.T, data []byte) {
	before := Stats().Outstanding
	h, used, err := decodeHeader(data)
	if err != nil {
		if !errors.Is(err, ErrMalformedFrame) {
			t.Fatalf("rejection %v is not ErrMalformedFrame", err)
		}
		return
	}
	if h.Flags&^callFlagsKnown != 0 {
		t.Fatalf("decoder accepted unknown flag bits %#x", h.Flags&^callFlagsKnown)
	}
	if (h.Flags&CallTraceCtx != 0) != (h.Trace != TraceContext{}) || (h.Trace != TraceContext{} && (h.Trace.TraceID == 0 || h.Trace.Hop > MaxTraceHops)) {
		t.Fatalf("decoder accepted flags %#x with wire-illegal context %+v", h.Flags, h.Trace)
	}
	m := Get()
	h.Encode(m)
	if !bytes.Equal(m.Bytes(), data[:used]) {
		t.Fatalf("accepted header re-encodes to %x, decoder consumed %x", m.Bytes(), data[:used])
	}
	m.Release()
	if after := Stats().Outstanding; after != before {
		t.Fatalf("frame pool outstanding %d -> %d across one header", before, after)
	}
}

// FuzzCallHeader drives the whole call-header decode path — fixed
// fields and trace context — with arbitrary bytes.
func FuzzCallHeader(f *testing.F) {
	f.Add(encodeHeader(CallHeader{Site: 3, Obj: 5, Seq: 9, NArgs: 2}))
	f.Add(encodeHeader(CallHeader{Flags: CallRetryable, Seq: 1, NArgs: 1, Trace: TraceContext{TraceID: 1}}))
	f.Add(encodeHeader(CallHeader{Trace: TraceContext{TraceID: 0x1122334455667788, Hop: MaxTraceHops}}))
	// Hostile hop count, one past the cap.
	f.Add(rawHeader(CallTraceCtx, 1, ctxBytes(TraceContext{TraceID: 5, Hop: MaxTraceHops + 1})))
	// Colliding IDs: trace ID == the call's seq (legal on the wire; the
	// tree assembler names spans by call, the decoder must not conflate
	// them).
	f.Add(encodeHeader(CallHeader{Seq: 77, Trace: TraceContext{TraceID: 77, Hop: 2}}))
	// Zero trace ID (the in-memory "unsampled" sentinel must never
	// decode).
	f.Add(rawHeader(CallTraceCtx, 1, make([]byte, 9)))
	// Truncated context, truncated header, nothing.
	f.Add(rawHeader(CallTraceCtx, 1, ctxBytes(TraceContext{TraceID: 9, Hop: 1})[:5]))
	f.Add(rawHeader(0, 1)[:11])
	f.Add([]byte{})
	// Promise sections of the retired pipelining protocol: rejected.
	for _, b := range retiredFrames() {
		f.Add(b)
	}
	// Retired bits 1 (traced) and 2 (one-way) and unassigned bits 6–7,
	// alone and beside live flags (retired bits 3–4 are the promise
	// seeds above).
	f.Add(rawHeader(1<<2, 1))
	f.Add(rawHeader(CallRetryable|1<<1|1<<2, 1))
	f.Add(rawHeader(1<<6, 1))
	f.Add(rawHeader(1<<7|CallTraceCtx, 1, ctxBytes(TraceContext{TraceID: 4, Hop: 1})))
	// A reply frame is not a call.
	f.Add([]byte{MsgReply, 0, 0, 0, 0, 0, 0, 0, 0, ReplyAck})
	// Bit 1 alone, beside a context, and a whole protocol 1 traced
	// header.
	f.Add(rawHeader(1<<1, 1))
	f.Add(rawHeader(CallRetryable|1<<1|CallTraceCtx, 1, ctxBytes(TraceContext{TraceID: 4, Hop: 1})))
	f.Add(v1TracedHeader())

	f.Fuzz(checkCallHeader)
}

// FuzzTraceContext feeds its bytes to the same contract as the trace
// context of an otherwise plain header. FuzzCallHeader is the target
// `make fuzz` mutates; this one replays the context corpus collected
// before the header had a codec of its own.
func FuzzTraceContext(f *testing.F) {
	f.Add(ctxBytes(TraceContext{TraceID: 1, Hop: 0}))
	f.Add(ctxBytes(TraceContext{TraceID: 0x1122334455667788, Hop: MaxTraceHops}))
	f.Add(ctxBytes(TraceContext{TraceID: 5, Hop: MaxTraceHops + 1}))
	f.Add(ctxBytes(TraceContext{TraceID: 77, Hop: 2}))
	f.Add(make([]byte, 9))
	f.Add(ctxBytes(TraceContext{TraceID: 9, Hop: 1})[:5])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		checkCallHeader(t, rawHeader(CallTraceCtx, 1, data))
	})
}
