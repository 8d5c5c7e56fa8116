package serial

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"cormi/internal/model"
	"cormi/internal/stats"
	"cormi/internal/testkit"
	"cormi/internal/wire"
)

// classFrame writes root as one class-mode value.
func classFrame(t *testing.T, root *model.Object) []byte {
	t.Helper()
	var c stats.Counters
	m := wire.NewMessage(0)
	if _, err := WriteValues(m, []model.Value{model.Ref(root)}, nil, Config{Mode: ModeClass}, &c); err != nil {
		t.Fatal(err)
	}
	return m.Bytes()
}

// hintCounts reads h's six counts: objects, field values, doubles,
// ints, bytes, refs.
func hintCounts(h *SlabHint) [6]int64 {
	return [6]int64{h.objs.Load(), h.fields.Load(), h.doubles.Load(), h.ints.Load(), h.bytes.Load(), h.refs.Load()}
}

// TestHintedClassReadAllocs pins the class-level decode in steady
// state on a side with a slab hint: the previous message of the same
// shape sized every slab, so a read into caller scratch pays exactly
// one chunk per slab kind the graph uses — objects and field vectors
// for the list, objects, row references and doubles for the array.
func TestHintedClassReadAllocs(t *testing.T) {
	if testkit.Enabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	reg, shapes := codecShapes()
	want := map[string]float64{"list100": 2, "array16x16": 3}
	for _, s := range shapes {
		n, ok := want[s.name]
		if !ok {
			continue
		}
		t.Run(s.name, func(t *testing.T) {
			frame := classFrame(t, s.root)
			cfg := Config{Mode: ModeClass, Hint: &SlabHint{}}
			scratch := make([]model.Value, 1)
			var c stats.Counters
			read := func() {
				rd := wire.GetReader(frame)
				_, roots, _, err := ReadValuesScratch(rd, reg, 1, nil, cfg, nil, scratch, &c)
				rd.ReleaseReader()
				if err != nil || roots != nil {
					t.Fatalf("read: roots %v err %v", roots, err)
				}
			}
			read()
			if got := testing.AllocsPerRun(200, read); got != n {
				t.Fatalf("hinted class read of %s allocates %.2f/op, want exactly %.0f", s.name, got, n)
			}
		})
	}
}

// TestHintBoundedByFrame: a hint left by a large message cannot make a
// later small frame commit more than its own payload allows — at most
// one object and one field value per payload byte, doubled for the
// size-class rounding of each chunk — whether the frame decodes or is
// rejected half-way, and a rejected frame leaves the hint as the last
// good message set it.
func TestHintBoundedByFrame(t *testing.T) {
	w := newWorld()
	var c stats.Counters
	h := &SlabHint{}
	cfg := Config{Mode: ModeClass, Hint: h}
	decode := func(frame []byte) error {
		_, _, _, err := ReadValuesScratch(wire.FromBytes(frame), w.reg, 1, nil, cfg, nil, nil, &c)
		return err
	}

	if err := decode(classFrame(t, w.makeList(250))); err != nil {
		t.Fatal(err)
	}
	large := hintCounts(h)
	if large != [6]int64{250, 500, 0, 0, 0, 0} {
		t.Fatalf("hint after a 250-node list = %v, want 250 objects and 500 fields", large)
	}

	small := classFrame(t, w.makeList(2))
	bomb := hostileFrame(func(m *wire.Message) {
		m.AppendByte(refNewDynamic)
		m.AppendInt32(w.node.ID)
		m.AppendInt64(1) // v; next is missing
	})
	for _, f := range []struct {
		name  string
		frame []byte
		ok    bool
	}{{"small", small, true}, {"truncated", bomb, false}} {
		t.Run(f.name, func(t *testing.T) {
			perByte := uint64(unsafe.Sizeof(model.Object{}) + unsafe.Sizeof(model.Value{}))
			limit := 2 * perByte * uint64(len(f.frame))
			b := committedPerRun(100, func() {
				h.objs.Store(large[0])
				h.fields.Store(large[1])
				if err := decode(f.frame); (err == nil) != f.ok {
					t.Fatalf("decode: err = %v, want success %v", err, f.ok)
				}
			})
			if testkit.Enabled {
				return // instrumentation allocates beside the slabs
			}
			if b > limit {
				t.Fatalf("%d-byte frame after a 250-node hint committed %d bytes, want ≤ %d", len(f.frame), b, limit)
			}
		})
	}

	if err := decode(small); err != nil {
		t.Fatal(err)
	}
	if got := hintCounts(h); got != [6]int64{2, 4, 0, 0, 0, 0} {
		t.Fatalf("hint after a 2-node list = %v, want 2 objects and 4 fields", got)
	}
	big := classFrame(t, w.makeList(100))
	if err := decode(big[:len(big)-5]); !errors.Is(err, wire.ErrMalformedFrame) {
		t.Fatalf("truncated list: err = %v, want ErrMalformedFrame", err)
	}
	if got := hintCounts(h); got != [6]int64{2, 4, 0, 0, 0, 0} {
		t.Fatalf("a rejected frame moved the hint to %v", got)
	}
}

// TestClassDecodeWithConcurrentDefines runs class-level decodes while
// other goroutines define classes and array classes in the same
// registry: every decode resolves its class IDs from one table taken at
// its first ID, unknown and negative IDs stay typed rejections, and
// under -race the registry's append-only ID table shows no race.
func TestClassDecodeWithConcurrentDefines(t *testing.T) {
	w := newWorld()
	frame := classFrame(t, w.makeList(20))
	unknown := hostileFrame(func(m *wire.Message) {
		m.AppendByte(refNewDynamic)
		m.AppendInt32(1 << 20)
	})
	negative := hostileFrame(func(m *wire.Message) {
		m.AppendByte(refNewDynamic)
		m.AppendInt32(-7)
	})
	want := w.makeList(20)

	const definers, decoders, rounds = 2, 4, 200
	hint := &SlabHint{} // one side's hint, shared by its concurrent readers
	var wg sync.WaitGroup
	errs := make(chan error, decoders)
	for d := 0; d < definers; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c := w.reg.MustDefine(fmt.Sprintf("Defined%d_%d", d, i), nil, model.Field{Name: "x", Kind: model.FInt})
				w.reg.ArrayOf(c)
				w.reg.ArrayOf(w.leaf) // registered once, then found
			}
		}()
	}
	for d := 0; d < decoders; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c stats.Counters
			cfg := Config{Mode: ModeClass, Hint: hint}
			for i := 0; i < rounds; i++ {
				vals, _, _, err := ReadValuesScratch(wire.FromBytes(frame), w.reg, 1, nil, cfg, nil, nil, &c)
				if err == nil && !testkit.DeepEqual(vals[0].O, want) {
					err = errors.New("decoded list differs from the one written")
				}
				for _, bad := range [][]byte{unknown, negative} {
					if _, _, _, berr := ReadValuesScratch(wire.FromBytes(bad), w.reg, 1, nil, cfg, nil, nil, &c); !errors.Is(berr, wire.ErrMalformedFrame) {
						err = errors.Join(err, berr, errors.New("bad class ID not rejected as malformed"))
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := len(w.reg.Classes()); got < 2*definers*rounds {
		t.Fatalf("ID table has %d entries after %d defines", got, 2*definers*rounds)
	}
}
