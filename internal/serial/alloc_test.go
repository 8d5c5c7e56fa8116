package serial

import (
	"testing"

	"cormi/internal/model"
	"cormi/internal/stats"
	"cormi/internal/testkit"
	"cormi/internal/transport"
	"cormi/internal/wire"
)

// TestPureHotPathZeroAllocs drives one complete steady-state data
// trip — marshal into a pooled message, seal the frame in place, hand
// it to the channel transport, receive, unseal, and unmarshal into the
// §3.3 reuse caches — and requires ZERO heap allocations per trip.
// This is the PR's headline invariant (DESIGN.md §8): every byte
// buffer, message struct, serialization context, cycle table and
// object graph on this path is recycled.
func TestPureHotPathZeroAllocs(t *testing.T) {
	if testkit.Enabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	w := newWorld()
	plans := []*Plan{w.nodeListPlan(true)}
	cfg := Config{Mode: ModeSite, CycleElim: true, Reuse: true}
	vals := []model.Value{model.Ref(w.makeList(64))}
	var c stats.Counters

	net := transport.NewChannelNetwork(2, 4)
	defer net.Close()
	e0, e1 := net.Endpoint(0), net.Endpoint(1)

	var cached []*model.Object
	var scratch []model.Value
	trip := func() {
		m := wire.Get()
		if _, err := WriteValues(m, vals, plans, cfg, &c); err != nil {
			t.Fatalf("WriteValues: %v", err)
		}
		m.SealFrame()
		frame := m.Detach()
		if err := e0.Send(transport.Packet{To: 1, Payload: frame}); err != nil {
			t.Fatalf("Send: %v", err)
		}
		p, ok := e1.Recv()
		if !ok {
			t.Fatal("Recv: endpoint closed")
		}
		payload, err := wire.Unseal(p.Payload)
		if err != nil {
			t.Fatalf("Unseal: %v", err)
		}
		rd := wire.GetReader(payload)
		got, roots, _, rerr := ReadValuesScratch(rd, w.reg, 1, plans, cfg, cached, scratch, &c)
		if rerr != nil {
			t.Fatalf("ReadValuesScratch: %v", rerr)
		}
		rd.ReleaseReader()
		wire.PutBuf(p.Payload)
		cached, scratch = roots, got
	}

	// Warm the pools, the reuse cache and the cycle-table maps.
	for i := 0; i < 10; i++ {
		trip()
	}
	if avg := testing.AllocsPerRun(200, trip); avg != 0 {
		t.Fatalf("steady-state serialize+send+receive trip allocates %.2f/op, want 0", avg)
	}
}

// TestPrimitiveReadZeroAllocs: a message of primitives read into
// caller scratch allocates nothing — neither values nor roots, which
// ReadValuesScratch makes only at the first reference (a remote echo's
// callee decodes into its invocation record this way).
func TestPrimitiveReadZeroAllocs(t *testing.T) {
	if testkit.Enabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	w := newWorld()
	plans := []*Plan{PrimitivePlan("s", model.FInt), PrimitivePlan("s", model.FDouble)}
	cfg := Config{Mode: ModeSite}
	var c stats.Counters
	m := wire.NewMessage(0)
	if _, err := WriteValues(m, []model.Value{model.Int(7), model.Double(1.5)}, plans, cfg, &c); err != nil {
		t.Fatal(err)
	}
	frame := m.Bytes()
	scratch := make([]model.Value, 2)
	read := func() {
		rd := wire.GetReader(frame)
		vals, roots, _, err := ReadValuesScratch(rd, w.reg, 2, plans, cfg, nil, scratch, &c)
		rd.ReleaseReader()
		if err != nil || roots != nil || vals[0].I != 7 {
			t.Fatalf("read: vals %v roots %v err %v", vals, roots, err)
		}
	}
	read()
	if avg := testing.AllocsPerRun(200, read); avg != 0 {
		t.Fatalf("primitive read into scratch allocates %.2f/op, want 0", avg)
	}
}
