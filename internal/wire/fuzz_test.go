package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzDecodeHello drives the handshake decoder with arbitrary bytes.
// The properties under test are the hardening contract: no panic on any
// input, every rejection is a typed ErrMalformedFrame, and the decoder
// accepts exactly the frames the encoder produces — 16 bytes of magic,
// ProtocolVersion and a digest — so every accepted input re-encodes to
// itself.
func FuzzDecodeHello(f *testing.F) {
	valid := EncodeHello(0x1234)
	f.Add(valid)
	wrongVersion := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(wrongVersion[4:], ProtocolVersion+1)
	f.Add(wrongVersion)
	v1 := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(v1[4:], 1)
	f.Add(v1)
	badMagic := append([]byte(nil), valid...)
	badMagic[0] ^= 0xff
	f.Add(badMagic)
	f.Add([]byte{})
	f.Add([]byte{0x43, 0x4D, 0x48, 0x31})

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeHello(data)
		if err != nil {
			if !errors.Is(err, ErrMalformedFrame) {
				t.Fatalf("rejection %v is not ErrMalformedFrame", err)
			}
			return
		}
		if re := EncodeHello(d); !bytes.Equal(re, data) {
			t.Fatalf("accepted % x, which re-encodes to % x", data, re)
		}
	})
}
