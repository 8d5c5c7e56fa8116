package wire

import (
	"encoding/binary"
	"fmt"
)

// HELLO: the connection-scoped program check.
//
// The paper's model compiles both ends of every link from the same
// whole program, so sender and receiver agree on every serialization
// plan by construction. The HELLO frame checks that before any payload
// is decoded with the wrong plan: each side sends one digest of the
// layout every compiled plan depends on (serial.RegistryDigest). A peer
// whose digest differs runs a different program, and the link is
// refused for its life (rmi.ErrPlanMismatch).
//
// HELLO is itself wire input from an untrusted peer. It is a fixed
// 16-byte frame — magic, protocol version, digest — and DecodeHello
// accepts nothing else: any other length, magic or version wraps
// ErrMalformedFrame.

const (
	// ProtocolVersion is the wire protocol generation this build
	// speaks. A peer that states any other version is rejected, never
	// negotiated with. Version 2 retired call flag bit 1 and the trace
	// context's parent span ID (DESIGN.md §12).
	ProtocolVersion = 2

	// helloMagic guards against decoding a non-HELLO frame as a
	// handshake ("CMH1" little-endian).
	helloMagic = 0x31484D43

	// HelloSize is the length of every HELLO frame.
	HelloSize = 16
)

// EncodeHello returns the HELLO frame that states digest.
func EncodeHello(digest uint64) []byte {
	m := NewMessage(HelloSize)
	m.AppendInt32(helloMagic)
	m.AppendInt32(ProtocolVersion)
	m.AppendInt64(int64(digest))
	return m.Bytes()
}

// DecodeHello validates a HELLO frame and returns its digest.
func DecodeHello(b []byte) (uint64, error) {
	if len(b) != HelloSize {
		return 0, fmt.Errorf("%w: %d-byte hello, want %d", ErrMalformedFrame, len(b), HelloSize)
	}
	m := FromBytes(b)
	if magic := uint32(m.ReadInt32()); magic != helloMagic {
		return 0, fmt.Errorf("%w: hello magic %08x, want %08x", ErrMalformedFrame, magic, uint32(helloMagic))
	}
	if v := m.ReadInt32(); v != ProtocolVersion {
		return 0, fmt.Errorf("%w: hello protocol version %d, want %d", ErrMalformedFrame, v, ProtocolVersion)
	}
	return uint64(m.ReadInt64()), nil
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

// CheckPreamble validates a received connection preamble by the HELLO's
// rule: the magic, and a version equal to ProtocolVersion. Rejections
// wrap ErrMalformedFrame.
func CheckPreamble(p []byte) error {
	if len(p) != PreambleSize {
		return fmt.Errorf("%w: %d-byte preamble", ErrMalformedFrame, len(p))
	}
	if magic := binary.LittleEndian.Uint32(p[:4]); magic != helloMagic {
		return fmt.Errorf("%w: preamble magic %08x", ErrMalformedFrame, magic)
	}
	if v := binary.LittleEndian.Uint16(p[4:]); v != ProtocolVersion {
		return fmt.Errorf("%w: preamble protocol version %d, want %d", ErrMalformedFrame, v, ProtocolVersion)
	}
	return nil
}
