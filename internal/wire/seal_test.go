package wire

import (
	"bytes"
	"errors"
	"testing"
)

// seal seals payload through the one sealing path, Message.SealFrame.
func seal(payload []byte) []byte {
	return FromBytes(append([]byte(nil), payload...)).SealFrame()
}

func TestSealUnsealRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{
		{},
		{0},
		[]byte("hello, checksum"),
		bytes.Repeat([]byte{0xAB}, 4096),
	} {
		sealed := seal(payload)
		if len(sealed) != len(payload)+ChecksumSize {
			t.Fatalf("sealed %d bytes into %d, want +%d trailer", len(payload), len(sealed), ChecksumSize)
		}
		body, err := Unseal(sealed)
		if err != nil {
			t.Fatalf("Unseal(%d bytes): %v", len(payload), err)
		}
		if !bytes.Equal(body, payload) {
			t.Fatalf("roundtrip mangled payload: %q != %q", body, payload)
		}
	}
}

func TestUnsealDetectsEveryBitFlip(t *testing.T) {
	sealed := seal([]byte("the quick brown fox"))
	for i := range sealed {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), sealed...)
			mut[i] ^= 1 << bit
			if _, err := Unseal(mut); !errors.Is(err, ErrChecksum) {
				t.Fatalf("flip byte %d bit %d: err = %v, want ErrChecksum", i, bit, err)
			}
		}
	}
}

func TestUnsealShortFrame(t *testing.T) {
	for _, n := range []int{0, 1, ChecksumSize - 1} {
		if _, err := Unseal(make([]byte, n)); !errors.Is(err, ErrChecksum) {
			t.Errorf("Unseal(%d bytes) = %v, want ErrChecksum", n, err)
		}
	}
	// Exactly the trailer is a valid seal of the empty payload.
	if body, err := Unseal(seal(nil)); err != nil || len(body) != 0 {
		t.Errorf("Unseal(seal(nil)) = %v, %v", body, err)
	}
}

func TestUnsealTruncatedAndExtended(t *testing.T) {
	sealed := seal([]byte("truncate me"))
	if _, err := Unseal(sealed[:len(sealed)-1]); !errors.Is(err, ErrChecksum) {
		t.Errorf("truncated frame: %v, want ErrChecksum", err)
	}
	if _, err := Unseal(append(append([]byte(nil), sealed...), 0)); !errors.Is(err, ErrChecksum) {
		t.Errorf("extended frame: %v, want ErrChecksum", err)
	}
}
