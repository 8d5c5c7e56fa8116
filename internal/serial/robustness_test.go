package serial

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cormi/internal/model"
	"cormi/internal/stats"
	"cormi/internal/wire"
)

// TestRandomBytesNeverPanic: deserializing arbitrary garbage must
// return an error (or garbage values), never panic or hang — a
// received network message is untrusted input.
func TestRandomBytesNeverPanic(t *testing.T) {
	w := newWorld()
	plan := w.nodeListPlan(false)
	var c stats.Counters
	f := func(payload []byte, n uint8) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on %x: %v", payload, r)
				ok = false
			}
		}()
		nvals := int(n%4) + 1
		plans := make([]*Plan, nvals)
		for i := range plans {
			plans[i] = plan
		}
		_, _, _, _ = ReadValuesScratch(wire.FromBytes(payload), w.reg, nvals, plans, Config{Mode: ModeSite}, nil, nil, &c)
		_, _, _, _ = ReadValuesScratch(wire.FromBytes(payload), w.reg, nvals, nil, Config{Mode: ModeClass}, nil, nil, &c)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestTruncatedValidMessagesNeverPanic: every prefix of a valid
// message must fail cleanly.
func TestTruncatedValidMessagesNeverPanic(t *testing.T) {
	w := newWorld()
	plan := w.nodeListPlan(false)
	head := w.makeList(20)
	var c stats.Counters
	m := wire.NewMessage(0)
	if _, err := WriteValues(m, []model.Value{model.Ref(head)}, []*Plan{plan}, Config{Mode: ModeSite}, &c); err != nil {
		t.Fatal(err)
	}
	full := m.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, _, _, err := ReadValuesScratch(wire.FromBytes(full[:cut]), w.reg, 1,
			[]*Plan{plan}, Config{Mode: ModeSite}, nil, nil, &c); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(full))
		}
	}
}

// TestBitFlippedMessagesNeverPanic: single-bit corruption of a valid
// message either errors or decodes to some value, but never panics.
func TestBitFlippedMessagesNeverPanic(t *testing.T) {
	w := newWorld()
	head := w.makeList(10)
	var c stats.Counters
	m := wire.NewMessage(0)
	if _, err := WriteValues(m, []model.Value{model.Ref(head)}, nil, Config{Mode: ModeClass}, &c); err != nil {
		t.Fatal(err)
	}
	full := m.Bytes()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		corrupt := append([]byte(nil), full...)
		corrupt[rng.Intn(len(corrupt))] ^= 1 << uint(rng.Intn(8))
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on bit flip: %v", r)
				}
			}()
			_, _, _, _ = ReadValuesScratch(wire.FromBytes(corrupt), w.reg, 1, nil, Config{Mode: ModeClass}, nil, nil, &c)
		}()
	}
}

// TestImplausibleValueCountRejected: a corrupt or hostile header must
// not drive a huge allocation through the claimed value count.
func TestImplausibleValueCountRejected(t *testing.T) {
	w := newWorld()
	var c stats.Counters
	for _, n := range []int{-1, MaxWireValues + 1, 1 << 30} {
		if _, _, _, err := ReadValuesScratch(wire.FromBytes(nil), w.reg, n, nil, Config{Mode: ModeClass}, nil, nil, &c); err == nil {
			t.Errorf("value count %d accepted", n)
		}
	}
}

// TestErroredMessageReturnsError: once a message is in its sticky error
// state (e.g. after a short read), ReadValues must surface the error —
// never hand back zero-value object graphs as if deserialization
// succeeded.
func TestErroredMessageReturnsError(t *testing.T) {
	w := newWorld()
	var c stats.Counters
	m := wire.FromBytes([]byte{1})
	m.ReadInt64() // short read: poisons the message
	if m.Err() == nil {
		t.Fatal("short read did not poison the message")
	}
	vals, _, _, err := ReadValuesScratch(m, w.reg, 1, nil, Config{Mode: ModeClass}, nil, nil, &c)
	if err == nil {
		t.Fatalf("errored message accepted, returned %v", vals)
	}
}
