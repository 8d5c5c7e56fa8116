package serial

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"cormi/internal/model"
	"cormi/internal/stats"
	"cormi/internal/wire"
)

// Adversarial deserialization suite: every frame here is CRC-plausible
// input an attacker (or a badly skewed peer) could hand the decoder.
// The contract under test is uniform — a typed wire.ErrMalformedFrame,
// no panic, no unbounded allocation, and no leaked pooled read context.

// hostileFrame builds a class-mode frame whose single value is a
// reference encoded by body.
func hostileFrame(body func(m *wire.Message)) []byte {
	m := wire.NewMessage(64)
	m.AppendByte(byte(model.FRef))
	body(m)
	return m.Bytes()
}

// decodeClass runs one class-mode decode of a hostile frame.
func decodeClass(w *testWorld, frame []byte) error {
	var c stats.Counters
	_, _, _, err := ReadValuesScratch(wire.FromBytes(frame), w.reg, 1, nil, Config{Mode: ModeClass}, nil, nil, &c)
	return err
}

// validListFrame writes a 10-node list with the site plan, for the
// truncation and budget tests.
func validListFrame(t *testing.T, w *testWorld, plan *Plan) []byte {
	t.Helper()
	var c stats.Counters
	m := wire.NewMessage(0)
	if _, err := WriteValues(m, []model.Value{model.Ref(w.makeList(10))}, []*Plan{plan}, Config{Mode: ModeSite}, &c); err != nil {
		t.Fatal(err)
	}
	return m.Bytes()
}

func TestMalformedFrames(t *testing.T) {
	w := newWorld()
	refArray := w.reg.ArrayOf(w.leaf)
	doubleArray := w.reg.DoubleArray()
	plan := w.nodeListPlan(false)
	listFrame := validListFrame(t, w, plan)

	cases := []struct {
		name  string
		frame []byte
		site  bool // decode with the site plan instead of class mode
	}{
		{"truncated planned payload", listFrame[:len(listFrame)-4], true},
		{"empty frame", nil, false},
		{"bad value kind", []byte{9}, false},
		{"bad reference marker", hostileFrame(func(m *wire.Message) {
			m.AppendByte(77)
		}), false},
		{"dangling handle", hostileFrame(func(m *wire.Message) {
			m.AppendByte(refHandle)
			m.AppendInt32(5)
		}), false},
		{"negative handle", hostileFrame(func(m *wire.Message) {
			m.AppendByte(refHandle)
			m.AppendInt32(-1)
		}), false},
		{"unknown class ID", hostileFrame(func(m *wire.Message) {
			m.AppendByte(refNewDynamic)
			m.AppendInt32(9999)
		}), false},
		// The oversized-declared-length attack: a 10-byte frame claiming
		// a 2-billion-element reference array. The ≥1-byte-per-element
		// payload bound must reject it before the element slice exists.
		{"ref-array length bomb", hostileFrame(func(m *wire.Message) {
			m.AppendByte(refNewDynamic)
			m.AppendInt32(refArray.ID)
			m.AppendInt32(0x7fffffff)
		}), false},
		{"negative ref-array length", hostileFrame(func(m *wire.Message) {
			m.AppendByte(refNewDynamic)
			m.AppendInt32(refArray.ID)
			m.AppendInt32(-5)
		}), false},
		// Handle-count overflow: a ref array of empty double[] elements,
		// each registering one handle, crossing MaxHandleEntries.
		{"handle table overflow", hostileFrame(func(m *wire.Message) {
			n := MaxHandleEntries + 64
			m.AppendByte(refNewDynamic)
			m.AppendInt32(refArray.ID)
			m.AppendInt32(int32(n))
			for i := 0; i < n; i++ {
				m.AppendByte(refNewDynamic)
				m.AppendInt32(doubleArray.ID)
				m.AppendInt32(0) // zero-length float payload
			}
		}), false},
		// Depth bomb: Node nested through its next field past
		// MaxDecodeDepth, one dynamic object header per level.
		{"recursive depth bomb", hostileFrame(func(m *wire.Message) {
			for i := 0; i < MaxDecodeDepth+8; i++ {
				m.AppendByte(refNewDynamic)
				m.AppendInt32(w.node.ID)
				m.AppendInt64(int64(i)) // field v
			}
			m.AppendByte(refNull)
		}), false},
	}

	before := ReadCtxStats()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if tc.site {
				var c stats.Counters
				_, _, _, err = ReadValuesScratch(wire.FromBytes(tc.frame), w.reg, 1,
					[]*Plan{plan}, Config{Mode: ModeSite}, nil, nil, &c)
			} else {
				err = decodeClass(w, tc.frame)
			}
			if err == nil {
				t.Fatal("hostile frame decoded without error")
			}
			if !errors.Is(err, wire.ErrMalformedFrame) {
				t.Fatalf("error %v is not wire.ErrMalformedFrame", err)
			}
		})
	}
	after := ReadCtxStats()
	// Every rejected decode must still release its pooled read context.
	if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != puts {
		t.Fatalf("read contexts leaked across malformed decodes: %d gets, %d puts", gets, puts)
	}
	if after.Outstanding != before.Outstanding {
		t.Fatalf("outstanding read contexts drifted: %d -> %d", before.Outstanding, after.Outstanding)
	}
}

// TestImplausibleValueCount covers the header-level bound: the declared
// value count itself is hostile input.
func TestImplausibleValueCount(t *testing.T) {
	w := newWorld()
	var c stats.Counters
	for _, n := range []int{-1, MaxWireValues + 1} {
		_, _, _, err := ReadValuesScratch(wire.FromBytes(nil), w.reg, n, nil, Config{Mode: ModeClass}, nil, nil, &c)
		if !errors.Is(err, wire.ErrMalformedFrame) {
			t.Fatalf("count %d: err = %v, want ErrMalformedFrame", n, err)
		}
	}
}

// committedPerRun is the heap TotalAlloc delta of f averaged over runs
// calls on the calling goroutine: the bytes f commits, scratch that is
// already garbage by the time it returns included.
func committedPerRun(runs int, f func()) uint64 {
	f() // warm the pooled contexts
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestLengthBombAllocationBound pins the headline hardening property:
// a tiny hostile frame declaring a 2-billion-element array of each kind
// — double[], int[], byte[] and a reference array, at a class position
// and at a planned one — is rejected with the typed error in O(1)
// allocations and O(1) bytes. The length is checked against the
// remaining payload before anything is carved from the message's slabs,
// so the declared size never materializes.
func TestLengthBombAllocationBound(t *testing.T) {
	w := newWorld()
	leafNP := &NodePlan{Class: w.leaf, Steps: []Step{{Op: OpInt, Field: 0, FieldName: "x"}}}
	arrays := []struct {
		class *model.Class
		elem  *NodePlan
	}{
		{w.reg.DoubleArray(), nil},
		{w.reg.IntArray(), nil},
		{w.reg.MustByName("byte[]"), nil},
		{w.reg.ArrayOf(w.leaf), leafNP},
	}
	for _, a := range arrays {
		plan := &Plan{Site: "bomb", Kind: model.FRef, Root: &NodePlan{Class: a.class, Elem: a.elem}}
		for _, pos := range []struct {
			name  string
			frame []byte
			plans []*Plan
			cfg   Config
		}{
			{"class", hostileFrame(func(m *wire.Message) {
				m.AppendByte(refNewDynamic)
				m.AppendInt32(a.class.ID)
				m.AppendInt32(math.MaxInt32)
			}), nil, Config{Mode: ModeClass}},
			{"planned", func() []byte {
				m := wire.NewMessage(64)
				m.AppendByte(refNew)
				m.AppendInt32(math.MaxInt32)
				return m.Bytes()
			}(), []*Plan{plan}, Config{Mode: ModeSite, Reuse: true}},
		} {
			t.Run(a.class.Name+"/"+pos.name, func(t *testing.T) {
				if len(pos.frame) > 64 {
					t.Fatalf("hostile frame is %d bytes, want ≤ 64", len(pos.frame))
				}
				var c stats.Counters
				reject := func() {
					_, _, _, err := ReadValuesScratch(wire.FromBytes(pos.frame), w.reg, 1, pos.plans, pos.cfg, nil, nil, &c)
					if !errors.Is(err, wire.ErrMalformedFrame) {
						t.Fatalf("length bomb: err = %v, want ErrMalformedFrame", err)
					}
				}
				if allocs := testing.AllocsPerRun(100, reject); allocs > 16 {
					t.Fatalf("rejecting a %d-byte length bomb cost %.0f allocs", len(pos.frame), allocs)
				}
				if b := committedPerRun(100, reject); b >= 64<<10 {
					t.Fatalf("rejecting a %d-byte length bomb committed %d bytes", len(pos.frame), b)
				}
			})
		}
	}
}

// TestDecodeBudget exercises the per-frame allocation byte budget
// directly by shrinking it: a frame whose graph outgrows the budget is
// rejected with the typed error, commits at most twice the budget plus
// one maximal slab chunk per slab type (what the first objects carve
// before the budget trips), and restoring the budget re-admits it.
func TestDecodeBudget(t *testing.T) {
	w := newWorld()
	plan := w.nodeListPlan(false)
	frame := validListFrame(t, w, plan)
	var c stats.Counters
	class := wire.NewMessage(0)
	if _, err := WriteValues(class, []model.Value{model.Ref(w.makeList(1000))}, nil, Config{Mode: ModeClass}, &c); err != nil {
		t.Fatal(err)
	}

	base, per := decodeBudgetBase, decodeBudgetPerByte
	defer func() { decodeBudgetBase, decodeBudgetPerByte = base, per }()
	decodeBudgetBase, decodeBudgetPerByte = 32, 0

	const slabTypes, maxChunk = 6, 32 << 10
	bound := uint64(2*decodeBudgetBase + slabTypes*maxChunk)
	for _, d := range []struct {
		name  string
		frame []byte
		plans []*Plan
		cfg   Config
	}{
		{"planned", frame, []*Plan{plan}, Config{Mode: ModeSite}},
		{"class", class.Bytes(), nil, Config{Mode: ModeClass}},
	} {
		reject := func() {
			_, _, _, err := ReadValuesScratch(wire.FromBytes(d.frame), w.reg, 1, d.plans, d.cfg, nil, nil, &c)
			if !errors.Is(err, wire.ErrMalformedFrame) {
				t.Fatalf("%s over-budget decode: err = %v, want ErrMalformedFrame", d.name, err)
			}
		}
		if b := committedPerRun(100, reject); b > bound {
			t.Fatalf("%s over-budget decode committed %d bytes, bound %d", d.name, b, bound)
		}
	}

	decodeBudgetBase, decodeBudgetPerByte = base, per
	if _, _, _, err := ReadValuesScratch(wire.FromBytes(frame), w.reg, 1, []*Plan{plan}, Config{Mode: ModeSite}, nil, nil, &c); err != nil {
		t.Fatalf("decode under the real budget failed: %v", err)
	}
}

// TestDefaultBudgetAdmitsPaperWorkloads checks the budget constants
// against the paper's largest message shape (a 100-element list) with
// generous margin: hardening must not reject legitimate traffic.
func TestDefaultBudgetAdmitsPaperWorkloads(t *testing.T) {
	w := newWorld()
	var c stats.Counters
	m := wire.NewMessage(0)
	if _, err := WriteValues(m, []model.Value{model.Ref(w.makeList(1000))}, nil, Config{Mode: ModeClass}, &c); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ReadValuesScratch(wire.FromBytes(m.Bytes()), w.reg, 1, nil, Config{Mode: ModeClass}, nil, nil, &c); err != nil {
		t.Fatalf("1000-element list rejected by decode budget: %v", err)
	}
}

// TestMalformedDoesNotStickToPool ensures a message poisoned by Fail
// does not leave state behind when its buffers recycle: decode a
// hostile frame, then a valid one, through the same pooled paths.
func TestMalformedDoesNotStickToPool(t *testing.T) {
	w := newWorld()
	plan := w.nodeListPlan(false)
	frame := validListFrame(t, w, plan)
	bad := append([]byte(nil), frame[:len(frame)-6]...)
	var c stats.Counters
	for i := 0; i < 8; i++ {
		if _, _, _, err := ReadValuesScratch(wire.FromBytes(bad), w.reg, 1, []*Plan{plan}, Config{Mode: ModeSite}, nil, nil, &c); err == nil {
			t.Fatal("truncated frame decoded")
		}
		got, _, _, err := ReadValuesScratch(wire.FromBytes(frame), w.reg, 1, []*Plan{plan}, Config{Mode: ModeSite}, nil, nil, &c)
		if err != nil {
			t.Fatalf("valid decode after malformed one failed: %v", err)
		}
		if got[0].O.Get("v").I != 0 {
			t.Fatal("valid decode corrupted after malformed frame")
		}
	}
}

// TestHandleOverflowErrorMentionsCap pins the diagnostic: operators
// debugging a rejected frame need the limit in the message.
func TestHandleOverflowErrorMentionsCap(t *testing.T) {
	w := newWorld()
	refArray := w.reg.ArrayOf(w.leaf)
	doubleArray := w.reg.DoubleArray()
	n := MaxHandleEntries + 1
	frame := hostileFrame(func(m *wire.Message) {
		m.AppendByte(refNewDynamic)
		m.AppendInt32(refArray.ID)
		m.AppendInt32(int32(n))
		for i := 0; i < n; i++ {
			m.AppendByte(refNewDynamic)
			m.AppendInt32(doubleArray.ID)
			m.AppendInt32(0)
		}
	})
	err := decodeClass(w, frame)
	if !errors.Is(err, wire.ErrMalformedFrame) {
		t.Fatalf("err = %v", err)
	}
	if want := "handle table overflow"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}

// plannedListFrame hand-encodes a site-mode Node list of n nodes,
// closed by end (a null marker or a handle), as nodeListPlan reads it.
func plannedListFrame(n int, end func(m *wire.Message)) []byte {
	m := wire.NewMessage(9*n + 8)
	for i := 0; i < n; i++ {
		m.AppendByte(refNew)
		m.AppendInt64(int64(i))
	}
	end(m)
	return m.Bytes()
}

// TestPlannedListDepthBoundPinned: the reader walks a planned list in a
// loop that uses no stack, but the depth bound is part of what frames
// the decoder accepts, so it must sit exactly where the recursive
// walker had it — MaxDecodeDepth-1 nodes plus the closing null — and
// one node more must be a typed rejection.
func TestPlannedListDepthBoundPinned(t *testing.T) {
	w := newWorld()
	plans := []*Plan{w.nodeListPlan(true)}
	null := func(m *wire.Message) { m.AppendByte(refNull) }
	for _, cfg := range []Config{{Mode: ModeSite}, {Mode: ModeSite, Reuse: true, CycleElim: true}} {
		var c stats.Counters
		longest := MaxDecodeDepth - 1
		got, roots, _, err := ReadValuesScratch(wire.FromBytes(plannedListFrame(longest, null)), w.reg, 1, plans, cfg, nil, nil, &c)
		if err != nil {
			t.Fatalf("%d-node list rejected: %v", longest, err)
		}
		n := 0
		for o := got[0].O; o != nil; o = o.GetRef("next") {
			n++
		}
		if n != longest {
			t.Fatalf("decoded %d nodes, want %d", n, longest)
		}
		before := ReadCtxStats().Outstanding
		// Over donors too: the bound does not depend on reuse.
		_, _, _, err = ReadValuesScratch(wire.FromBytes(plannedListFrame(longest+1, null)), w.reg, 1, plans, cfg, roots, nil, &c)
		if !errors.Is(err, wire.ErrMalformedFrame) || !strings.Contains(err.Error(), "nesting") {
			t.Fatalf("%d-node list: err = %v, want a nesting rejection", longest+1, err)
		}
		if out := ReadCtxStats().Outstanding; out != before {
			t.Fatalf("read contexts outstanding %d -> %d", before, out)
		}
		// The rejection restored the depth it had consumed.
		if _, _, _, err := ReadValuesScratch(wire.FromBytes(plannedListFrame(10, null)), w.reg, 1, plans, cfg, nil, nil, &c); err != nil {
			t.Fatalf("decode after a depth rejection: %v", err)
		}
	}
}

// TestLoopRejectionsTypedBalancedAndCounted: a list cut off mid-loop
// and a dangling handle inside the loop are typed rejections that
// return their read context, and the objects materialized before the
// rejection stay counted exactly as the reference walker counts them.
func TestLoopRejectionsTypedBalancedAndCounted(t *testing.T) {
	w := newWorld()
	plans := []*Plan{w.nodeListPlan(true)}
	cfg := Config{Mode: ModeSite, Reuse: true}
	full := plannedListFrame(50, func(m *wire.Message) { m.AppendByte(refNull) })
	cases := []struct {
		name  string
		frame []byte
		nodes int64 // objects materialized before the rejection
	}{
		{"truncated mid-node", full[:9*20+4], 21},
		{"truncated between nodes", full[:9*20], 20},
		{"dangling handle", plannedListFrame(20, func(m *wire.Message) {
			m.AppendByte(refHandle)
			m.AppendInt32(20)
		}), 20},
		{"negative handle", plannedListFrame(20, func(m *wire.Message) {
			m.AppendByte(refHandle)
			m.AppendInt32(-1)
		}), 20},
		{"bad marker", plannedListFrame(20, func(m *wire.Message) { m.AppendByte(7) }), 20},
	}
	for _, tc := range cases {
		for _, withDonors := range []bool{false, true} {
			var donors, refDonors []*model.Object
			if withDonors {
				donors = []*model.Object{w.makeList(30)}
				refDonors = []*model.Object{w.makeList(30)}
			}
			// readBoth asserts the typed verdict, the read-context balance
			// and counters equal to the reference walker's.
			_, _, got, err := readBoth(t, w.reg, tc.frame, diffCase{vals: make([]model.Value, 1), plans: plans, cfg: cfg}, donors, refDonors)
			if err == nil {
				t.Fatalf("%s: decoded", tc.name)
			}
			if got.AllocObjects+got.ReusedObjs != tc.nodes {
				t.Fatalf("%s: %d allocated + %d reused, want %d materialized", tc.name, got.AllocObjects, got.ReusedObjs, tc.nodes)
			}
		}
	}
}

// TestEmptyPlannedArrayWithoutDonor: a nil destination "fits" a
// zero-length array, which the reader used to take for an in-place
// reuse of a donor it did not have (nil dereference on a 5-byte frame).
func TestEmptyPlannedArrayWithoutDonor(t *testing.T) {
	w := newWorld()
	for _, class := range []*model.Class{w.reg.DoubleArray(), w.reg.IntArray(), w.reg.MustByName("byte[]")} {
		plans := []*Plan{{Site: "E.m.1", Kind: model.FRef, Root: &NodePlan{Class: class}, Reusable: true}}
		frame := func() []byte {
			m := wire.NewMessage(8)
			m.AppendByte(refNew)
			m.AppendInt32(0)
			return m.Bytes()
		}()
		wrongDonor := []*model.Object{model.New(w.leaf)}
		for _, cached := range [][]*model.Object{nil, wrongDonor} {
			var c stats.Counters
			got, _, _, err := ReadValuesScratch(wire.FromBytes(frame), w.reg, 1, plans, Config{Mode: ModeSite, Reuse: true}, cached, nil, &c)
			if err != nil {
				t.Fatalf("%s: %v", class.Name, err)
			}
			if o := got[0].O; o == nil || o.Class != class || o.Len() != 0 {
				t.Fatalf("%s: decoded %v", class.Name, o)
			}
			if s := c.Snapshot(); s.AllocObjects != 1 || s.ReusedObjs != 0 {
				t.Fatalf("%s: %d allocated, %d reused", class.Name, s.AllocObjects, s.ReusedObjs)
			}
		}
	}
}
