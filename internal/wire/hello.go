package wire

import (
	"encoding/binary"
	"fmt"
)

// HELLO: the connection-scoped version handshake.
//
// The paper's model compiles both ends of every link from the same
// whole program, so sender and receiver agree on every serialization
// plan by construction. The HELLO frame checks that before any payload
// is decoded with the wrong plan: each side states its protocol
// version, its plan generation and a fingerprint per class (a hash of
// the layout its compiled plans depend on, see
// serial.ClassFingerprint). A peer whose plan generation or any
// fingerprint differs runs a different program, and the link is
// refused for its life (rmi.ErrPlanMismatch).
//
// HELLO is itself wire input from an untrusted peer, so DecodeHello is
// written to the same standard as the payload decoder: every declared
// length is checked against the bytes actually present, entry counts
// are capped, and every rejection wraps ErrMalformedFrame. No panic,
// no unbounded allocation.

const (
	// ProtocolVersion is the wire protocol generation this build
	// speaks. A link runs at min(local, remote); today only version 1
	// exists, so a peer advertising 0 (or a mangled preamble) is
	// rejected rather than negotiated with.
	ProtocolVersion = 1

	// helloMagic guards against decoding a non-HELLO frame as a
	// handshake ("CMH1" little-endian).
	helloMagic = 0x31484D43

	// MaxHelloEntries caps the per-class fingerprint table. The
	// registry of a real program holds tens of classes; 4096 is far
	// above any legitimate program and far below an allocation attack.
	MaxHelloEntries = 4096

	// maxHelloName caps a single class name in a HELLO entry.
	maxHelloName = 256

	// helloEntryMinBytes is the smallest possible encoded entry: a
	// 4-byte name length (name may not be empty, so ≥1 name byte) plus
	// an 8-byte fingerprint. Used to bound the declared entry count by
	// the bytes actually present before anything is allocated.
	helloEntryMinBytes = 4 + 1 + 8
)

// Link capability bits, advertised in Hello.Caps. A link runs with the
// intersection of both sides' capability sets, so an optional protocol
// feature (trace-context propagation) is used on a link only when both
// peers advertise it; a peer that omits a bit — an
// older build, or a test masking capabilities — demotes the feature on
// that link without affecting correctness.
const (
	// 1<<0 (promise pipelining), 1<<1 (one-way calls) and 1<<2 (frame
	// batching) are retired and never reused: an older peer may still
	// advertise them, and the intersection drops them.
	// CapTracing: the peer decodes the optional trace-context field in
	// call frames (CallTraceCtx in the call header). A link to a peer
	// without this bit drops the context — the call still runs, its
	// downstream spans just fall out of the trace — instead of sending
	// a frame the peer would reject as malformed.
	CapTracing uint32 = 1 << 3

	// LocalCaps is the capability set this build advertises.
	LocalCaps = CapTracing
)

// HelloEntry is one class fingerprint: the class name and the hash of
// the plan layout the sender compiled for it.
type HelloEntry struct {
	Name string
	FP   uint64
}

// Hello is the handshake either side of a link sends before payload
// traffic. Entries are sorted by class name (the registry's canonical
// order) so two honest peers produce byte-identical tables for
// identical programs.
type Hello struct {
	Version     int32  // wire protocol generation (ProtocolVersion)
	PlanVersion int32  // sender's plan generation, bumped on recompile
	Node        int32  // sender's node ID, for observability
	Caps        uint32 // optional-feature bits (Cap*), intersected per link
	Entries     []HelloEntry
}

// EncodeHello serializes h into a standalone (unsealed) HELLO frame.
func EncodeHello(h *Hello) []byte {
	m := NewMessage(24 + 24*len(h.Entries))
	m.AppendInt32(helloMagic)
	m.AppendInt32(h.Version)
	m.AppendInt32(h.PlanVersion)
	m.AppendInt32(h.Node)
	m.AppendInt32(int32(h.Caps))
	m.AppendInt32(int32(len(h.Entries)))
	for _, e := range h.Entries {
		m.AppendString(e.Name)
		m.AppendInt64(int64(e.FP))
	}
	return m.Bytes()
}

// DecodeHello parses and validates a HELLO frame. Every rejection —
// wrong magic, unsupported version, implausible entry count, oversized
// or empty names, short payloads, trailing garbage — wraps
// ErrMalformedFrame.
func DecodeHello(b []byte) (*Hello, error) {
	m := FromBytes(b)
	if magic := m.ReadInt32(); m.Err() == nil && magic != helloMagic {
		return nil, fmt.Errorf("%w: hello magic %08x, want %08x", ErrMalformedFrame, uint32(magic), uint32(helloMagic))
	}
	h := &Hello{
		Version:     m.ReadInt32(),
		PlanVersion: m.ReadInt32(),
		Node:        m.ReadInt32(),
	}
	h.Caps = uint32(m.ReadInt32())
	n := int(m.ReadInt32())
	if err := m.Err(); err != nil {
		return nil, err
	}
	if h.Version < 1 {
		return nil, fmt.Errorf("%w: hello protocol version %d", ErrMalformedFrame, h.Version)
	}
	if n < 0 || n > MaxHelloEntries {
		return nil, fmt.Errorf("%w: hello entry count %d (cap %d)", ErrMalformedFrame, n, MaxHelloEntries)
	}
	// Bound the table allocation by the bytes actually present before
	// making it: n entries need at least n*helloEntryMinBytes more.
	if n*helloEntryMinBytes > m.Remaining() {
		return nil, fmt.Errorf("%w: hello declares %d entries but only %d payload bytes remain",
			ErrMalformedFrame, n, m.Remaining())
	}
	h.Entries = make([]HelloEntry, 0, n)
	for i := 0; i < n; i++ {
		name := m.ReadString()
		fp := uint64(m.ReadInt64())
		if err := m.Err(); err != nil {
			return nil, err
		}
		if len(name) == 0 || len(name) > maxHelloName {
			return nil, fmt.Errorf("%w: hello entry %d name length %d", ErrMalformedFrame, i, len(name))
		}
		h.Entries = append(h.Entries, HelloEntry{Name: name, FP: fp})
	}
	if m.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after hello", ErrMalformedFrame, m.Remaining())
	}
	return h, nil
}

// --- stream preamble ------------------------------------------------

// PreambleSize is the length of the fixed preamble a stream transport
// (TCP) writes immediately after connecting, before any framed
// traffic: the HELLO magic plus the sender's protocol version. It lets
// a receiver reject a wrong-protocol or wrong-version peer from the
// first six bytes instead of misparsing its frames.
const PreambleSize = 6

// Preamble returns the connection preamble for this build.
func Preamble() [PreambleSize]byte {
	var p [PreambleSize]byte
	binary.LittleEndian.PutUint32(p[:4], helloMagic)
	binary.LittleEndian.PutUint16(p[4:], ProtocolVersion)
	return p
}

// CheckPreamble validates a received connection preamble. Rejections
// wrap ErrMalformedFrame.
func CheckPreamble(p []byte) error {
	if len(p) != PreambleSize {
		return fmt.Errorf("%w: %d-byte preamble", ErrMalformedFrame, len(p))
	}
	if magic := binary.LittleEndian.Uint32(p[:4]); magic != helloMagic {
		return fmt.Errorf("%w: preamble magic %08x", ErrMalformedFrame, magic)
	}
	if v := binary.LittleEndian.Uint16(p[4:]); v < 1 {
		return fmt.Errorf("%w: preamble protocol version %d", ErrMalformedFrame, v)
	}
	return nil
}
