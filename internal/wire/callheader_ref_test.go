package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// The reference encoder: the call and reply header assembly as
// internal/rmi wrote it by hand before CallHeader existed (startRemote,
// executeAndReply, sendError, sendMalformed), lifted verbatim with its
// own copy of every constant. It writes protocol 1, whose traced calls
// set flag bit 1 and carry a 17-byte context with the parent span's ID.
// It exists so Encode is held to the bytes the protocol always had,
// less exactly what protocol 2 removed (v1ToV2); the hex goldens below
// keep the reference itself from drifting with the code.

const (
	msgCall  = 0
	msgReply = 1

	callFlagRetryable = 1 << 0
	callFlagTraced    = 1 << 1
	callFlagTraceCtx  = 1 << 5

	replyAck       = 0
	replyValues    = 1
	replyError     = 2
	replyMalformed = 3
)

// refTraceContext is the protocol 1 trace context: trace ID, the
// caller span's ID, hop.
type refTraceContext struct {
	TraceID, Parent uint64
	Hop             uint8
}

// refCall is what startRemote knew when it assembled a header.
type refCall struct {
	retryable, traced bool
	site              int32
	obj, seq          int64
	nargs             int
	wireCtx           refTraceContext
}

func refAppendTraceContext(m *Message, c refTraceContext) {
	m.AppendInt64(int64(c.TraceID))
	m.AppendInt64(int64(c.Parent))
	m.AppendByte(c.Hop)
}

func refEncodeCall(m *Message, c refCall) {
	m.AppendByte(msgCall)
	var flags byte
	if c.retryable {
		flags |= callFlagRetryable
	}
	if c.traced {
		flags |= callFlagTraced
	}
	if c.wireCtx.TraceID != 0 {
		flags |= callFlagTraceCtx
	}
	m.AppendByte(flags)
	m.AppendInt32(c.site)
	m.AppendInt64(c.obj)
	m.AppendInt64(c.seq)
	m.AppendInt32(int32(c.nargs))
	if c.wireCtx.TraceID != 0 {
		refAppendTraceContext(m, c.wireCtx)
	}
}

func refEncodeReply(m *Message, seq int64, kind byte) {
	m.AppendByte(msgReply)
	m.AppendInt64(seq)
	m.AppendByte(kind)
}

// header is the CallHeader a protocol 2 caller builds for c: the
// traced bit has no counterpart (the packet's wall stamp says it), and
// the context keeps its trace ID and hop.
func (c refCall) header() CallHeader {
	h := CallHeader{Site: c.site, Obj: c.obj, Seq: c.seq, NArgs: int32(c.nargs),
		Trace: TraceContext{TraceID: c.wireCtx.TraceID, Hop: c.wireCtx.Hop}}
	if c.retryable {
		h.Flags |= CallRetryable
	}
	return h
}

// v1ToV2 maps a protocol 1 call header to protocol 2: flag bit 1
// cleared, and the 8 parent span ID bytes after a context's trace ID
// removed. Everything else is the same bytes.
func v1ToV2(v1 []byte) []byte {
	const fixed = 1 + 1 + 4 + 8 + 8 + 4 // tag flags site obj seq nargs
	v2 := append([]byte(nil), v1...)
	v2[1] &^= callFlagTraced
	if v2[1]&callFlagTraceCtx != 0 {
		v2 = append(v2[:fixed+8], v2[fixed+16:]...)
	}
	return v2
}

func encodeHeader(h CallHeader) []byte {
	m := NewMessage(64)
	h.Encode(m)
	return m.Bytes()
}

// decodeHeader runs the receive path over b: tag, then Decode. It
// returns the header and how many bytes it consumed.
func decodeHeader(b []byte) (CallHeader, int, error) {
	m := FromBytes(b)
	var h CallHeader
	if tag := m.ReadU8(); m.Err() == nil && tag != MsgCall {
		return h, 0, fmt.Errorf("%w: tag %d is not a call", ErrMalformedFrame, tag)
	}
	if err := h.Decode(m); err != nil {
		return h, 0, err
	}
	return h, len(b) - m.Remaining(), nil
}

// TestCallHeaderDifferential is the protocol 1 → 2 mapping: over every
// combination of the caller-set flags × {no ctx, ctx}, Encode writes
// the protocol 1 reference's bytes with bit 1 cleared and the parent
// span ID removed (v1ToV2) — an untraced header byte for byte the
// reference's — and Decode inverts Encode.
func TestCallHeaderDifferential(t *testing.T) {
	ctxs := []refTraceContext{{}, {TraceID: 0xdeadbeefcafef00d, Parent: 7, Hop: 3}, {TraceID: ^uint64(0), Parent: ^uint64(0), Hop: MaxTraceHops}}
	cases := 0
	for bits := 0; bits < 4; bits++ {
		for _, ctx := range ctxs {
			c := refCall{
				retryable: bits&1 != 0, traced: bits&2 != 0,
				site: 0x01020304, obj: 0x1112131415161718, seq: 0x2122232425262728, nargs: 4,
				wireCtx: ctx,
			}
			name := fmt.Sprintf("flags=%02b ctx=%v", bits, ctx.TraceID != 0)
			ref := NewMessage(128)
			refEncodeCall(ref, c)
			h := c.header()
			got := encodeHeader(h)
			if want := v1ToV2(ref.Bytes()); hex.EncodeToString(got) != hex.EncodeToString(want) {
				t.Fatalf("%s:\n  Encode %x\nv1ToV2(reference %x) = %x", name, got, ref.Bytes(), want)
			}
			if !c.traced && ctx.TraceID == 0 && !bytes.Equal(got, ref.Bytes()) {
				t.Fatalf("%s: untraced header %x differs from protocol 1's %x", name, got, ref.Bytes())
			}
			back, used, err := decodeHeader(got)
			if err != nil {
				t.Fatalf("%s: Decode(Encode(h)): %v", name, err)
			}
			if used != len(got) {
				t.Fatalf("%s: Decode consumed %d of %d bytes", name, used, len(got))
			}
			want := h
			if ctx.TraceID != 0 {
				want.Flags |= CallTraceCtx
			}
			if !reflect.DeepEqual(back, want) {
				t.Fatalf("%s: Decode(Encode(h)) = %+v, want %+v", name, back, want)
			}
			cases++
		}
	}
	if cases != 12 {
		t.Fatalf("covered %d combinations, want 12", cases)
	}
}

// TestCallHeaderRejectsUnknownFlags runs every flags byte through the
// receive path, each with the sections its bits announce (bit 4 its
// retired promise section). The retired bits 1–4 (traced, one-way,
// promised, pipelined) and the unassigned bits 6–7 make the header
// malformed; every other byte decodes. A rejected header keeps the Seq
// it read, which the receiver's best-effort rejection is addressed by.
func TestCallHeaderRejectsUnknownFlags(t *testing.T) {
	const unknown = 1<<1 | 1<<2 | 1<<3 | 1<<4 | 1<<6 | 1<<7
	rejected := 0
	for f := 0; f < 256; f++ {
		var sections [][]byte
		if f&callFlagTraceCtx != 0 {
			sections = append(sections, ctxBytes(TraceContext{TraceID: 1, Hop: 1}))
		}
		if f&retiredPipelined != 0 {
			sections = append(sections, promiseBytes(1, retiredHandle{arg: 0}))
		}
		h, _, err := decodeHeader(rawHeader(byte(f), 1, sections...))
		if f&unknown == 0 {
			if err != nil {
				t.Errorf("flags %08b: %v", f, err)
			}
			continue
		}
		rejected++
		if !errors.Is(err, ErrMalformedFrame) {
			t.Errorf("flags %08b: err = %v, want ErrMalformedFrame", f, err)
		}
		if h.Seq != 3 {
			t.Errorf("flags %08b: rejected header kept Seq %d, want 3", f, h.Seq)
		}
	}
	if rejected != 252 {
		t.Fatalf("rejected %d flag bytes, want 252", rejected)
	}
}

// TestCallHeaderGoldens pins the protocol 1 reference encoder and
// Encode to checked-in bytes, so neither can drift with the other. The
// same prefixes appear on a live link in rmi.TestFramesOnTheWire and
// rmi.TestTracedFrameOnTheWire.
func TestCallHeaderGoldens(t *testing.T) {
	calls := []struct {
		name   string
		c      refCall
		v1, v2 string
	}{
		{"plain call", refCall{site: 3, obj: 5, seq: 9, nargs: 2},
			"00" + "00" + "03000000" + "0500000000000000" + "0900000000000000" + "02000000",
			"00" + "00" + "03000000" + "0500000000000000" + "0900000000000000" + "02000000"},
		{"traced + ctx", refCall{retryable: true, traced: true, site: 1, obj: 2, seq: 0x0102030405060708, nargs: 1,
			wireCtx: refTraceContext{TraceID: 0x1122334455667788, Parent: 0x99aabbccddeeff00, Hop: 3}},
			"00" + "23" + "01000000" + "0200000000000000" + "0807060504030201" + "01000000" +
				"8877665544332211" + "00ffeeddccbbaa99" + "03",
			"00" + "21" + "01000000" + "0200000000000000" + "0807060504030201" + "01000000" +
				"8877665544332211" + "03"},
	}
	for _, tc := range calls {
		ref := NewMessage(128)
		refEncodeCall(ref, tc.c)
		if got := hex.EncodeToString(ref.Bytes()); got != tc.v1 {
			t.Errorf("%s: reference encoder\n got %s\nwant %s", tc.name, got, tc.v1)
		}
		if got := hex.EncodeToString(encodeHeader(tc.c.header())); got != tc.v2 {
			t.Errorf("%s: Encode\n got %s\nwant %s", tc.name, got, tc.v2)
		}
	}

	replies := []struct {
		name     string
		ref, got byte
		want     string
	}{
		{"ack", replyAck, ReplyAck, "01" + "0900000000000000" + "00"},
		{"values", replyValues, ReplyValues, "01" + "0900000000000000" + "01"},
		{"error", replyError, ReplyError, "01" + "0900000000000000" + "02"},
		{"malformed", replyMalformed, ReplyMalformed, "01" + "0900000000000000" + "03"},
	}
	for _, tc := range replies {
		ref, m := NewMessage(16), NewMessage(16)
		refEncodeReply(ref, 9, tc.ref)
		AppendReplyHeader(m, 9, tc.got)
		if got := hex.EncodeToString(ref.Bytes()); got != tc.want {
			t.Errorf("%s reply: reference encoder\n got %s\nwant %s", tc.name, got, tc.want)
		}
		if got := hex.EncodeToString(m.Bytes()); got != tc.want {
			t.Errorf("%s reply: AppendReplyHeader\n got %s\nwant %s", tc.name, got, tc.want)
		}
		if m.Len() != ReplyHeaderLen {
			t.Errorf("%s reply: %d header bytes, ReplyHeaderLen says %d", tc.name, m.Len(), ReplyHeaderLen)
		}
		rd := FromBytes(m.Bytes())
		if tag := rd.ReadU8(); tag != MsgReply {
			t.Errorf("%s reply: tag %d", tc.name, tag)
		}
		if seq, kind := ReadReplyHeader(rd); seq != 9 || kind != tc.got || rd.Err() != nil || rd.Remaining() != 0 {
			t.Errorf("%s reply: ReadReplyHeader = (%d, %d), err %v, %d bytes left", tc.name, seq, kind, rd.Err(), rd.Remaining())
		}
	}
}
