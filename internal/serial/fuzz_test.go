package serial

import (
	"errors"
	"testing"

	"cormi/internal/model"
	"cormi/internal/stats"
	"cormi/internal/wire"
)

// FuzzReadValues drives the payload decoder — both the class-mode
// (self-describing) and site-mode (planned) paths — with arbitrary
// bytes. The hardening contract: no panic, no error other than a typed
// wire.ErrMalformedFrame, and the pooled read-context balance stays
// even across every outcome.
func FuzzReadValues(f *testing.F) {
	seedWorld := newWorld()
	var c stats.Counters
	// Seed with genuine encodings so mutation starts from accepted
	// shapes: a planned list, a dynamic list, and primitives.
	m := wire.NewMessage(0)
	plan := seedWorld.nodeListPlan(false)
	if _, err := WriteValues(m, []model.Value{model.Ref(seedWorld.makeList(5))},
		[]*Plan{plan}, Config{Mode: ModeSite}, &c); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte{1}, m.Bytes()...))
	// A long planned list: hundreds of iterations of the reader's
	// trailing-link loop for the mutator to cut, splice handles into and
	// extend.
	m = wire.NewMessage(0)
	if _, err := WriteValues(m, []model.Value{model.Ref(seedWorld.makeList(600))},
		[]*Plan{plan}, Config{Mode: ModeSite}, &c); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte{0}, m.Bytes()...))
	m = wire.NewMessage(0)
	if _, err := WriteValues(m, []model.Value{model.Ref(seedWorld.makeList(3)), model.Int(7)},
		nil, Config{Mode: ModeClass}, &c); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte{2}, m.Bytes()...))
	f.Add([]byte{1, byte(model.FRef), refNewDynamic})
	// Class ID 3, the retired byte[], with what was an empty payload:
	// rejected as an unknown class.
	f.Add([]byte{0, byte(model.FRef), refNewDynamic, 3, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// First byte selects the value count (bounded); the rest is the
		// frame payload.
		if len(data) == 0 {
			return
		}
		n := int(data[0]%5) + 1
		payload := data[1:]
		w := newWorld()
		fuzzPlan := w.nodeListPlan(false)
		plans := make([]*Plan, n)
		for i := range plans {
			plans[i] = fuzzPlan
		}
		before := ReadCtxStats()
		var cc stats.Counters
		if _, _, _, err := ReadValuesScratch(wire.FromBytes(payload), w.reg, n, nil,
			Config{Mode: ModeClass}, nil, nil, &cc); err != nil && !errors.Is(err, wire.ErrMalformedFrame) {
			t.Fatalf("class-mode rejection %v is not ErrMalformedFrame", err)
		}
		if _, _, _, err := ReadValuesScratch(wire.FromBytes(payload), w.reg, n, plans,
			Config{Mode: ModeSite}, nil, nil, &cc); err != nil && !errors.Is(err, wire.ErrMalformedFrame) {
			t.Fatalf("site-mode rejection %v is not ErrMalformedFrame", err)
		}
		after := ReadCtxStats()
		if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != puts {
			t.Fatalf("read-context leak: %d gets, %d puts", gets, puts)
		}
	})
}
