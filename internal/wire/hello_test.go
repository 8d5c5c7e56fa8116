package wire

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

func sampleHello() *Hello {
	return &Hello{
		Version:     ProtocolVersion,
		PlanVersion: 7,
		Node:        3,
		Caps:        LocalCaps,
		Entries: []HelloEntry{
			{Name: "Base", FP: 0xd10c6d4e7862dc7e},
			{Name: "Derived1", FP: 0xfc2caa8666b72dcf},
			{Name: "double[]", FP: 0x6314424c1538ffe1},
		},
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := sampleHello()
	got, err := DecodeHello(EncodeHello(h))
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != h.Version || got.PlanVersion != h.PlanVersion || got.Node != h.Node || got.Caps != h.Caps {
		t.Fatalf("header round trip: %+v != %+v", got, h)
	}
	if len(got.Entries) != len(h.Entries) {
		t.Fatalf("%d entries, want %d", len(got.Entries), len(h.Entries))
	}
	for i, e := range h.Entries {
		if got.Entries[i] != e {
			t.Fatalf("entry %d: %+v != %+v", i, got.Entries[i], e)
		}
	}
}

// TestLocalCaps pins the advertised capability set to the literal
// bits: 1<<0, 1<<1 and 1<<2 are retired (promise pipelining, one-way
// calls, frame batching) and must never come back under a new meaning.
func TestLocalCaps(t *testing.T) {
	if LocalCaps != CapTracing {
		t.Fatalf("LocalCaps = %#x, want CapTracing", LocalCaps)
	}
	if CapTracing != 1<<3 {
		t.Fatalf("CapTracing = %#x, want 1<<3", CapTracing)
	}
}

func TestHelloEmptyTableRoundTrips(t *testing.T) {
	h := &Hello{Version: ProtocolVersion, PlanVersion: 1, Node: 0}
	got, err := DecodeHello(EncodeHello(h))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 0 {
		t.Fatalf("entries = %+v, want none", got.Entries)
	}
}

// TestHelloRejections drives DecodeHello with every malformation class
// the hardening design enumerates; each must produce a typed
// ErrMalformedFrame, never a panic, never a partial success.
func TestHelloRejections(t *testing.T) {
	valid := EncodeHello(sampleHello())
	le := binary.LittleEndian

	cases := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"truncated magic", valid[:3]},
		{"bad magic", func() []byte {
			b := append([]byte(nil), valid...)
			le.PutUint32(b, 0xdeadbeef)
			return b
		}()},
		{"version zero", func() []byte {
			b := append([]byte(nil), valid...)
			le.PutUint32(b[4:], 0)
			return b
		}()},
		{"negative version", func() []byte {
			b := append([]byte(nil), valid...)
			le.PutUint32(b[4:], 0x80000001)
			return b
		}()},
		{"truncated header", valid[:10]},
		{"negative count", func() []byte {
			b := append([]byte(nil), valid...)
			le.PutUint32(b[20:], 0xffffffff)
			return b
		}()},
		{"count over cap", func() []byte {
			b := append([]byte(nil), valid...)
			le.PutUint32(b[20:], MaxHelloEntries+1)
			return b
		}()},
		// The allocation attack: a header-only frame declaring a full
		// table. The count×minBytes bound must reject it before the
		// table is allocated.
		{"count exceeds payload", func() []byte {
			b := append([]byte(nil), valid[:24]...)
			le.PutUint32(b[20:], MaxHelloEntries)
			return b
		}()},
		{"truncated mid-entry", valid[:len(valid)-5]},
		{"empty name", EncodeHello(&Hello{Version: 1, Entries: []HelloEntry{{Name: "", FP: 1}}})},
		{"oversized name", EncodeHello(&Hello{Version: 1, Entries: []HelloEntry{
			{Name: strings.Repeat("x", maxHelloName+1), FP: 1}}})},
		{"trailing garbage", append(append([]byte(nil), valid...), 0xcc)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, err := DecodeHello(tc.b)
			if err == nil {
				t.Fatalf("decoded %+v from malformed input", h)
			}
			if !errors.Is(err, ErrMalformedFrame) {
				t.Fatalf("error %v is not ErrMalformedFrame", err)
			}
		})
	}
}

// TestHelloAllocationBound pins the adversarial-allocation property: a
// tiny frame declaring a huge table must be rejected with O(1)
// allocations, not after materializing the declared size.
func TestHelloAllocationBound(t *testing.T) {
	b := EncodeHello(sampleHello())[:24]
	binary.LittleEndian.PutUint32(b[20:], MaxHelloEntries)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeHello(b); err == nil {
			t.Fatal("hostile hello decoded")
		}
	})
	if allocs > 8 {
		t.Fatalf("rejecting a 20-byte hostile hello cost %.0f allocs", allocs)
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
