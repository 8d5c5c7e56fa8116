package wire

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const sampleDigest = 0xd10c6d4e7862dc7e

// TestHelloRoundTrip: a HELLO is 16 bytes, decodes to the digest it
// was built from, and decoding it allocates nothing.
func TestHelloRoundTrip(t *testing.T) {
	b := EncodeHello(sampleDigest)
	if len(b) != 16 {
		t.Fatalf("hello is %d bytes, want 16", len(b))
	}
	got, err := DecodeHello(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != sampleDigest {
		t.Fatalf("digest %016x, want %016x", got, uint64(sampleDigest))
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeHello(b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("decoding a hello cost %.0f allocs, want 0", allocs)
	}
}

// TestHelloRejections: a HELLO of any other length, magic or version —
// a protocol 1 peer's among them — is a typed ErrMalformedFrame, never
// a panic, never a partial success.
func TestHelloRejections(t *testing.T) {
	valid := EncodeHello(sampleDigest)
	le := binary.LittleEndian
	with := func(edit func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		edit(b)
		return b
	}
	cases := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"truncated magic", valid[:3]},
		{"truncated header", valid[:6]},
		{"truncated digest", valid[:15]},
		{"trailing garbage", append(append([]byte(nil), valid...), 0xcc)},
		{"bad magic", with(func(b []byte) { le.PutUint32(b, 0xdeadbeef) })},
		{"version zero", with(func(b []byte) { le.PutUint32(b[4:], 0) })},
		{"version one", with(func(b []byte) { le.PutUint32(b[4:], 1) })},
		{"version three", with(func(b []byte) { le.PutUint32(b[4:], 3) })},
		{"negative version", with(func(b []byte) { le.PutUint32(b[4:], 0x80000001) })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := DecodeHello(tc.b)
			if err == nil {
				t.Fatalf("decoded digest %016x from malformed input", d)
			}
			if !errors.Is(err, ErrMalformedFrame) {
				t.Fatalf("error %v is not ErrMalformedFrame", err)
			}
		})
	}
}

// TestHelloAllocationBound: rejecting a frame of the wrong length
// costs the same few allocations (the error) however large the frame:
// nothing is decoded before the length is checked.
func TestHelloAllocationBound(t *testing.T) {
	b := append(EncodeHello(sampleDigest), make([]byte, 1<<16)...)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeHello(b); err == nil {
			t.Fatal("oversized hello decoded")
		}
	})
	if allocs > 8 {
		t.Fatalf("rejecting a 64 KB hello cost %.0f allocs", allocs)
	}
}

// TestOldHelloCorpusRejects: every HELLO of the per-class table format,
// as kept in the fuzz corpus, is rejected by the 16-byte decoder.
func TestOldHelloCorpusRejects(t *testing.T) {
	for _, name := range []string{"bad_version", "count_overflow", "truncated", "valid_empty", "valid_two_entries"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodeHello", name))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		lit := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		b, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := DecodeHello([]byte(b)); !errors.Is(err, ErrMalformedFrame) {
			t.Errorf("%s: err = %v, want ErrMalformedFrame", name, err)
		}
	}
}

func TestPreamble(t *testing.T) {
	p := Preamble()
	if err := CheckPreamble(p[:]); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"short":     p[:4],
		"long":      append(append([]byte(nil), p[:]...), 0),
		"bad magic": {0, 1, 2, 3, 1, 0},
		"version 0": {0x43, 0x4D, 0x48, 0x31, 0, 0},
		"version 1": {0x43, 0x4D, 0x48, 0x31, 1, 0},
		"version 3": {0x43, 0x4D, 0x48, 0x31, 3, 0},
	} {
		if err := CheckPreamble(bad); !errors.Is(err, ErrMalformedFrame) {
			t.Errorf("%s: err = %v, want ErrMalformedFrame", name, err)
		}
	}
}

// TestShortMessageIsMalformed pins the error taxonomy: reading past the
// end of a message is a malformed-frame condition (sender violation),
// and existing errors.Is(ErrShortMessage) checks keep working.
func TestShortMessageIsMalformed(t *testing.T) {
	m := FromBytes([]byte{1})
	m.ReadInt64()
	if err := m.Err(); !errors.Is(err, ErrMalformedFrame) || !errors.Is(err, ErrShortMessage) {
		t.Fatalf("short read error %v must wrap both sentinels", err)
	}
}

func TestMessageFailFirstWins(t *testing.T) {
	m := FromBytes([]byte{1, 2, 3})
	first := errors.New("first")
	m.Fail(first)
	m.Fail(errors.New("second"))
	if m.Err() != first {
		t.Fatalf("Err() = %v, want the first failure", m.Err())
	}
}
