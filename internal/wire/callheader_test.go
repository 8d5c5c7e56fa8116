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

func ctxBytes(c TraceContext) []byte {
	m := NewMessage(17)
	refAppendTraceContext(m, c)
	return m.Bytes()
}

// promiseBytes writes a promise section whose declared count need not
// match the handles that follow.
func promiseBytes(count int32, hs ...PromiseHandle) []byte {
	m := NewMessage(64)
	refWritePromises(m, hs)
	b := m.Bytes()
	b[0], b[1], b[2], b[3] = byte(count), byte(count>>8), byte(count>>16), byte(count>>24)
	return b
}

func TestTraceContextRoundTrip(t *testing.T) {
	cases := []TraceContext{
		{TraceID: 1, Parent: 0, Hop: 0},
		{TraceID: 0xdeadbeefcafef00d, Parent: 7, Hop: 3},
		{TraceID: ^uint64(0), Parent: ^uint64(0), Hop: MaxTraceHops},
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
	valid := ctxBytes(TraceContext{TraceID: 42, Parent: 9, Hop: 1})
	cases := map[string][]byte{
		"empty":     {},
		"truncated": valid[:len(valid)-1],
		"short id":  valid[:7],
		"zero id":   ctxBytes(TraceContext{TraceID: 0, Parent: 9, Hop: 1}),
		"hop cap":   ctxBytes(TraceContext{TraceID: 42, Parent: 9, Hop: MaxTraceHops + 1}),
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

// TestTraceContextValid pins the wire-legality predicate the writer
// gates on: whatever Valid accepts, Decode must accept too.
func TestTraceContextValid(t *testing.T) {
	if (TraceContext{}).Valid() {
		t.Error("zero context must not be wire-legal")
	}
	if !(TraceContext{TraceID: 1}).Valid() {
		t.Error("minimal root context must be wire-legal")
	}
	if (TraceContext{TraceID: 1, Hop: MaxTraceHops + 1}).Valid() {
		t.Error("over-limit hop must not be wire-legal")
	}
}

func TestPromisesRoundTrip(t *testing.T) {
	in := []PromiseHandle{
		{Arg: 0, Seq: 42, Ret: 0},
		{Arg: 2, Seq: 7, Ret: 3},
		{Arg: 1, Seq: 1 << 40, Ret: 1},
	}
	out, _, err := decodeHeader(encodeHeader(CallHeader{NArgs: 4, Promises: in}))
	if err != nil {
		t.Fatalf("DecodePromises: %v", err)
	}
	if len(out.Promises) != len(in) {
		t.Fatalf("got %d handles, want %d", len(out.Promises), len(in))
	}
	for i := range in {
		if out.Promises[i] != in[i] {
			t.Fatalf("handle %d: got %+v, want %+v", i, out.Promises[i], in[i])
		}
	}

	// An empty section round-trips to nil, and Encode writes it back:
	// the pipelined bit never travels without its section.
	empty := rawHeader(CallPipelined, 4, promiseBytes(0))
	out, used, err := decodeHeader(empty)
	if err != nil || out.Promises != nil || used != len(empty) {
		t.Fatalf("empty section: handles=%v err=%v, consumed %d of %d", out.Promises, err, used, len(empty))
	}
	if re := encodeHeader(out); !bytes.Equal(re, empty) {
		t.Fatalf("empty section re-encodes to %x, want %x", re, empty)
	}
}

func TestReadPromisesRejects(t *testing.T) {
	cases := []struct {
		name    string
		section []byte
		nargs   int32
	}{
		{"negative count", promiseBytes(-1), 4},
		{"count over cap", promiseBytes(MaxPromiseHandles + 1), MaxPromiseHandles + 2},
		{"more handles than args", promiseBytes(3, PromiseHandle{}, PromiseHandle{Arg: 1}, PromiseHandle{Arg: 2}), 2},
		{"arg negative", promiseBytes(1, PromiseHandle{Arg: -1}), 4},
		{"arg out of range", promiseBytes(1, PromiseHandle{Arg: 4}), 4},
		{"duplicate arg", promiseBytes(2, PromiseHandle{Arg: 1}, PromiseHandle{Arg: 1}), 4},
		{"duplicate arg past 64", promiseBytes(2, PromiseHandle{Arg: 70}, PromiseHandle{Arg: 70}), 80},
		{"ret negative", promiseBytes(1, PromiseHandle{Arg: 0, Ret: -1}), 4},
		{"ret over cap", promiseBytes(1, PromiseHandle{Arg: 0, Ret: MaxPromiseHandles}), 4},
		{"truncated section", promiseBytes(2, PromiseHandle{Arg: 0}), 4},
		{"no section", nil, 4},
	}
	for _, tc := range cases {
		h, _, err := decodeHeader(rawHeader(CallPipelined, tc.nargs, tc.section))
		if !errors.Is(err, ErrMalformedFrame) {
			t.Errorf("%s: err = %v, want ErrMalformedFrame", tc.name, err)
		}
		if h.Promises != nil {
			t.Errorf("%s: rejected section left handles %v", tc.name, h.Promises)
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
	if (h.Flags&CallTraceCtx != 0) != (h.Trace != TraceContext{}) || (h.Trace != TraceContext{} && !h.Trace.Valid()) {
		t.Fatalf("decoder accepted flags %#x with wire-illegal context %+v", h.Flags, h.Trace)
	}
	if len(h.Promises) > 0 && h.Flags&CallPipelined == 0 {
		t.Fatalf("handles %v decoded without the pipelined flag", h.Promises)
	}
	seen := map[int32]bool{}
	for _, p := range h.Promises {
		if p.Arg < 0 || p.Arg >= h.NArgs || seen[p.Arg] || p.Ret < 0 || p.Ret >= MaxPromiseHandles {
			t.Fatalf("decoder accepted handle %+v (nargs %d, handles %v)", p, h.NArgs, h.Promises)
		}
		seen[p.Arg] = true
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
// fields, trace context, promise section — with arbitrary bytes.
func FuzzCallHeader(f *testing.F) {
	f.Add(encodeHeader(CallHeader{Site: 3, Obj: 5, Seq: 9, NArgs: 2}))
	f.Add(encodeHeader(CallHeader{Flags: CallRetryable | CallTraced, Seq: 1, NArgs: 1, Trace: TraceContext{TraceID: 1}}))
	f.Add(encodeHeader(CallHeader{Trace: TraceContext{TraceID: 0x1122334455667788, Parent: 0x99aabbccddeeff00, Hop: MaxTraceHops}}))
	// Hostile hop count, one past the cap.
	f.Add(rawHeader(CallTraceCtx, 1, ctxBytes(TraceContext{TraceID: 5, Parent: 6, Hop: MaxTraceHops + 1})))
	// Colliding IDs: trace ID == parent span ID (legal on the wire; the
	// tree assembler must cope, the decoder must not conflate them).
	f.Add(encodeHeader(CallHeader{Trace: TraceContext{TraceID: 77, Parent: 77, Hop: 2}}))
	// Zero trace ID (the in-memory "unsampled" sentinel must never
	// decode).
	f.Add(rawHeader(CallTraceCtx, 1, make([]byte, 17)))
	// Truncated context, truncated header, nothing.
	f.Add(rawHeader(CallTraceCtx, 1, ctxBytes(TraceContext{TraceID: 9, Parent: 1, Hop: 1})[:12]))
	f.Add(rawHeader(0, 1)[:11])
	f.Add([]byte{})
	// Promise sections: well-formed (alone and behind a context), empty,
	// over the cap, duplicated position, out-of-range position, bad
	// return index, truncated.
	f.Add(encodeHeader(CallHeader{Flags: CallPromised, NArgs: 4, Promises: refHandles}))
	f.Add(encodeHeader(CallHeader{NArgs: 4, Trace: TraceContext{TraceID: 8, Parent: 3, Hop: 1}, Promises: refHandles[:1]}))
	f.Add(rawHeader(CallPipelined, 4, promiseBytes(0)))
	f.Add(rawHeader(CallPipelined, 100, promiseBytes(MaxPromiseHandles+1)))
	f.Add(rawHeader(CallPipelined, 4, promiseBytes(2, PromiseHandle{Arg: 1}, PromiseHandle{Arg: 1})))
	f.Add(rawHeader(CallPipelined, 4, promiseBytes(1, PromiseHandle{Arg: 4})))
	f.Add(rawHeader(CallPipelined, 4, promiseBytes(1, PromiseHandle{Arg: 0, Ret: MaxPromiseHandles})))
	f.Add(rawHeader(CallPipelined, 4, promiseBytes(2, PromiseHandle{Arg: 0})))
	// Retired bit 2 (one-way) and unassigned bits 6–7, alone and beside
	// live flags.
	f.Add(rawHeader(1<<2, 1))
	f.Add(rawHeader(CallRetryable|CallTraced|1<<2, 1))
	f.Add(rawHeader(1<<6, 1))
	f.Add(rawHeader(1<<7|CallTraceCtx, 1, ctxBytes(TraceContext{TraceID: 4, Hop: 1})))
	// A reply frame is not a call.
	f.Add([]byte{MsgReply, 0, 0, 0, 0, 0, 0, 0, 0, ReplyAck})

	f.Fuzz(checkCallHeader)
}

// FuzzTraceContext feeds its bytes to the same contract as the trace
// context of an otherwise plain header. FuzzCallHeader is the target
// `make fuzz` mutates; this one replays the context corpus collected
// before the header had a codec of its own.
func FuzzTraceContext(f *testing.F) {
	f.Add(ctxBytes(TraceContext{TraceID: 1, Parent: 0, Hop: 0}))
	f.Add(ctxBytes(TraceContext{TraceID: 0x1122334455667788, Parent: 0x99aabbccddeeff00, Hop: MaxTraceHops}))
	f.Add(ctxBytes(TraceContext{TraceID: 5, Parent: 6, Hop: MaxTraceHops + 1}))
	f.Add(ctxBytes(TraceContext{TraceID: 77, Parent: 77, Hop: 2}))
	f.Add(make([]byte, 17))
	f.Add(ctxBytes(TraceContext{TraceID: 9, Parent: 1, Hop: 1})[:12])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		checkCallHeader(t, rawHeader(CallTraceCtx, 1, data))
	})
}
