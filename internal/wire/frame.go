package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// MaxFrameSize bounds a single framed message (64 MiB), protecting
// stream transports from corrupt length prefixes.
const MaxFrameSize = 64 << 20

// ChecksumSize is the length of the payload checksum trailer appended
// by SealFrame. Every RMI frame is sealed before it enters the
// transport so that corruption injected by a lossy interconnect is
// detected instead of deserialized.
const ChecksumSize = 4

// ErrChecksum is reported by Unseal when a payload fails verification —
// the frame was corrupted in flight and must be discarded.
var ErrChecksum = errors.New("wire: payload checksum mismatch")

// ErrMalformedFrame is reported when a frame passes its checksum but
// the content violates the protocol: declared lengths exceeding the
// actual payload, implausible table or entry counts, unknown class
// IDs, nesting bombs, or decode work past the per-frame allocation
// budget. A checksum failure (ErrChecksum) means the interconnect
// corrupted honest bytes and a retransmit will recover; a malformed
// frame means the SENDER put hostile or version-skewed bytes on the
// wire, so retransmits are pointless and callers must be able to tell
// the two apart (errors.Is). Every decode-layer rejection wraps this
// sentinel.
var ErrMalformedFrame = errors.New("wire: malformed frame")

// crcTable is the Castagnoli polynomial, hardware-accelerated on
// current CPUs.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// SealFrame seals the message in place: the CRC32-C trailer is
// appended to the message's own buffer (which a pooled message has
// spare capacity for after its first use, so no frame copy happens in
// steady state) and the sealed frame is returned. After sealing, the
// message must not be appended to again; the usual sender sequence is
// SealFrame, Detach, Endpoint.Send.
func (m *Message) SealFrame() []byte {
	sum := crc32.Checksum(m.buf, crcTable)
	m.buf = binary.LittleEndian.AppendUint32(m.buf, sum)
	return m.buf
}

// Unseal verifies a sealed payload's trailer and returns the payload
// with the trailer stripped. It returns ErrChecksum on mismatch and on
// payloads too short to carry a trailer.
func Unseal(sealed []byte) ([]byte, error) {
	if len(sealed) < ChecksumSize {
		return nil, fmt.Errorf("%w: %d-byte frame too short", ErrChecksum, len(sealed))
	}
	body := sealed[:len(sealed)-ChecksumSize]
	want := binary.LittleEndian.Uint32(sealed[len(body):])
	if got := crc32.Checksum(body, crcTable); got != want {
		return nil, fmt.Errorf("%w: got %08x want %08x", ErrChecksum, got, want)
	}
	return body, nil
}
