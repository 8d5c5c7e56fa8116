package rmi

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cormi/internal/balance"
	"cormi/internal/model"
	"cormi/internal/serial"
	"cormi/internal/stats"
	"cormi/internal/testkit"
	"cormi/internal/trace"
	"cormi/internal/transport"
	"cormi/internal/wire"
)

// TestHomogeneousNegotiation: nodes of one program negotiate a link
// that refuses nothing: the call runs, and every link's Refused stays 0.
func TestHomogeneousNegotiation(t *testing.T) {
	e := newEnv(t, 2)
	ref := e.c.Node(1).Export(e.sumService())
	cs := e.c.MustNewCallSite(LevelSite, SiteSpec{
		Name: "t.sum.1", Method: "sum",
		ArgPlans: []*serial.Plan{e.listPlan("t.sum.1", true, false)},
		RetPlans: []*serial.Plan{intPlan("t.sum.1")},
	})
	if _, err := cs.Invoke(e.c.Node(0), ref, []model.Value{model.Ref(e.makeList(5))}); err != nil {
		t.Fatal(err)
	}
	l := e.c.Node(0).linkTo(1)
	if l == nil || !l.ready.Load() {
		t.Fatal("link 0->1 not negotiated after a call")
	}
	if l.refused {
		t.Fatal("homogeneous link refused")
	}
	ls := e.c.LinkStats()
	if len(ls) != 2 {
		t.Fatalf("LinkStats = %+v, want both directions of the one link", ls)
	}
	for _, l := range ls {
		if l.Refused != 0 {
			t.Errorf("link %d->%d refused %d calls", l.From, l.To, l.Refused)
		}
	}
}

// TestSkewedClusterRefuses: with node 1 running other plans, every call
// from node 0 to it fails with ErrPlanMismatch before anything is
// marshalled or sent, the method never runs, and the link counts each
// refusal. A call node 1 makes to itself stays local and runs.
func TestSkewedClusterRefuses(t *testing.T) {
	e := newEnv(t, 2, WithPlanSkew(1))
	var execs atomic.Int64
	ref := e.c.Node(1).Export(countingService(&execs))
	cs := bumpSite(t, e.c)
	const calls = 4
	for i := 0; i < calls; i++ {
		vals, err := cs.Invoke(e.c.Node(0), ref, []model.Value{model.Int(1)})
		if !errors.Is(err, ErrPlanMismatch) || vals != nil {
			t.Fatalf("call %d over a skewed link: vals=%v err=%v, want ErrPlanMismatch", i, vals, err)
		}
	}
	s := e.c.Counters.Snapshot()
	if s.RemoteRPCs != 0 || s.Messages != 0 || s.WireBytes != 0 || execs.Load() != 0 {
		t.Errorf("refused calls reached the wire: %d rpcs, %d messages, %d bytes, %d executions",
			s.RemoteRPCs, s.Messages, s.WireBytes, execs.Load())
	}
	if got := cs.Stats().Calls; got != 0 {
		t.Errorf("site counted %d calls, want none issued", got)
	}
	var saw bool
	for _, l := range e.c.LinkStats() {
		if l.From == 0 && l.To == 1 {
			saw = true
			if l.Refused != calls {
				t.Errorf("link 0->1 Refused = %d, want %d", l.Refused, calls)
			}
		}
	}
	if !saw {
		t.Fatalf("link 0->1 missing from %+v", e.c.LinkStats())
	}
	if vals, err := cs.Invoke(e.c.Node(1), ref, []model.Value{model.Int(1)}); err != nil || vals[0].I != 2 {
		t.Fatalf("node-local call on the skewed node: vals=%v err=%v", vals, err)
	}
}

// TestUndecodableHelloRefuses: a peer HELLO that does not decode —
// cut short, as one read off a socket could be, or a protocol 1 peer's
// — refuses the link: a peer whose program cannot be verified is not
// trusted. Every call over the link fails with ErrPlanMismatch and is
// counted on it, and none runs; the node's other links keep working.
func TestUndecodableHelloRefuses(t *testing.T) {
	for name, bad := range map[string]func([]byte) []byte{
		"truncated":  func(h []byte) []byte { return h[:wire.HelloSize-1] },
		"protocol 1": func(h []byte) []byte { binary.LittleEndian.PutUint32(h[4:], 1); return h },
	} {
		e := newEnv(t, 3)
		var execs atomic.Int64
		cs := bumpSite(t, e.c)
		e.c.negotiateWithPeerHello(0, 1, bad(e.c.hello(1)))
		if _, err := cs.Invoke(e.c.Node(0), e.c.Node(1).Export(countingService(&execs)), []model.Value{model.Int(1)}); !errors.Is(err, ErrPlanMismatch) {
			t.Fatalf("%s: call over a link whose peer HELLO does not decode: err=%v, want ErrPlanMismatch", name, err)
		}
		for _, l := range e.c.LinkStats() {
			if l.From == 0 && l.To == 1 && l.Refused != 1 {
				t.Errorf("%s: link 0->1 Refused = %d, want 1", name, l.Refused)
			}
		}
		vals, err := cs.Invoke(e.c.Node(0), e.c.Node(2).Export(countingService(&execs)), []model.Value{model.Int(1)})
		if err != nil || vals[0].I != 2 || execs.Load() != 1 {
			t.Fatalf("%s: call over the other link: vals=%v err=%v, %d executions, want 2, nil, 1", name, vals, err, execs.Load())
		}
	}
	// The whole HELLO of the same peer is accepted.
	ok := newEnv(t, 2)
	ok.c.negotiateWithPeerHello(0, 1, ok.c.hello(1))
	if ok.c.Node(0).linkTo(1).refused {
		t.Fatal("link refused on a whole HELLO of the same program")
	}
}

// TestLongClassNameLinks: a class name of any length is a legal
// program; a remote call whose argument class has a 300-byte name runs
// at every optimization level instead of refusing the link.
func TestLongClassNameLinks(t *testing.T) {
	for _, level := range AllLevels {
		c := New(2)
		t.Cleanup(c.Close)
		long := testkit.MustDefine(c.Registry, strings.Repeat("N", 300), nil, model.Field{Name: "v", Kind: model.FInt})
		long.Fields = append(long.Fields, model.Field{Name: "next", Kind: model.FRef, Class: long})
		e := &testEnv{c: c, node: long}
		ref := c.Node(1).Export(e.sumService())
		cs := c.MustNewCallSite(level, SiteSpec{
			Name: "t.sum.1", Method: "sum",
			ArgPlans: []*serial.Plan{e.listPlan("t.sum.1", true, false)},
			RetPlans: []*serial.Plan{intPlan("t.sum.1")},
		})
		vals, err := cs.Invoke(c.Node(0), ref, []model.Value{model.Ref(e.makeList(5))})
		if err != nil {
			t.Fatalf("%s: %v", level, err)
		}
		if vals[0].I != 10 {
			t.Fatalf("%s: sum = %d, want 10", level, vals[0].I)
		}
	}
}

// TestMalformedFramesDumpOnce: malformed frames from two peers leave
// one flight-recorder dump, the tracer's only one, so the sink stays a
// single loadable Chrome-trace document.
func TestMalformedFramesDumpOnce(t *testing.T) {
	var dump syncBuffer
	tr := trace.New(trace.Config{FailureDump: &dump})
	c := New(3, WithTracer(tr))
	t.Cleanup(c.Close)
	for from := 1; from <= 2; from++ {
		m := wire.Get()
		m.AppendByte(0xEE) // no such message tag
		m.SealFrame()
		if err := c.Network().Endpoint(from).Send(transport.Packet{To: 0, Payload: m.Detach()}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for c.Counters.MalformedFrames.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := c.Counters.MalformedFrames.Load(); got != 2 {
		t.Fatalf("MalformedFrames = %d, want 2", got)
	}
	c.Close() // every receive loop, and so every dump, has finished
	dec := json.NewDecoder(bytes.NewReader(dump.Bytes()))
	var docs int
	for {
		var doc map[string]any
		if err := dec.Decode(&doc); err != nil {
			break
		}
		docs++
	}
	if docs != 1 {
		t.Fatalf("%d dumps written, want 1", docs)
	}
}

// TestCallFrameOverRefusedLinkDropped: a sealed call frame that arrives
// over a refused link is counted on the receiver's link to its sender
// and dropped unanswered, without decoding its arguments (its bad
// reference marker counts no malformed frame) and without running the
// method; every frame is back in the pool after Close.
func TestCallFrameOverRefusedLinkDropped(t *testing.T) {
	mark := balance.Take()
	tap := &tapNetwork{Network: transport.NewChannelNetwork(2, 64)}
	c := New(2, WithNetwork(tap), WithPlanSkew(1))
	defer c.Close()
	var execs atomic.Int64
	ref := c.Node(1).Export(countingService(&execs))
	cs := bumpSite(t, c)

	m := wire.Get()
	wire.CallHeader{Site: cs.ID, Obj: ref.Obj, Seq: 7, NArgs: 1}.Encode(m)
	m.AppendByte(77) // no such reference marker
	m.SealFrame()
	if err := tap.Endpoint(0).Send(transport.Packet{To: 1, Payload: m.Detach()}); err != nil {
		t.Fatal(err)
	}
	tap.take(t, 1) // the injected frame, and no reply
	refused := func() int64 {
		for _, l := range c.LinkStats() {
			if l.From == 1 && l.To == 0 {
				return l.Refused
			}
		}
		return 0
	}
	deadline := time.Now().Add(2 * time.Second)
	for refused() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := refused(); got != 1 {
		t.Fatalf("link 1->0 Refused = %d, want 1", got)
	}
	if got := c.Counters.MalformedFrames.Load(); got != 0 || execs.Load() != 0 {
		t.Errorf("dropped frame was decoded or run: %d malformed, %d executions", got, execs.Load())
	}
	tap.mu.Lock()
	answered := len(tap.frames)
	tap.mu.Unlock()
	if answered != 0 {
		t.Errorf("dropped frame drew %d frames in answer", answered)
	}
	c.Close()
	if err := mark.Settled(c.PendingCalls); err != nil {
		t.Fatal(err)
	}
}

// TestMalformedCallFrameRejectedTyped injects a crafted call frame with
// a valid header but hostile arguments, and checks the full rejection
// pipeline: typed counter incremented, the dedup cache holds nothing
// for the forged key — an honest retransmit stream under the same
// (from, seq) must not be swallowed — and the link keeps serving.
func TestMalformedCallFrameRejectedTyped(t *testing.T) {
	e := newEnv(t, 2)
	ref := e.c.Node(1).Export(e.sumService())
	cs := e.c.MustNewCallSite(LevelSite, SiteSpec{
		Name: "t.sum.1", Method: "sum",
		ArgPlans: []*serial.Plan{e.listPlan("t.sum.1", true, false)},
		RetPlans: []*serial.Plan{intPlan("t.sum.1")},
	})
	// A warm-up call negotiates the link and proves the site works.
	if _, err := cs.Invoke(e.c.Node(0), ref, []model.Value{model.Ref(e.makeList(3))}); err != nil {
		t.Fatal(err)
	}

	// Craft the hostile frame: valid call header addressed to the real
	// site and object, one argument, then a bad reference marker.
	const forgedSeq = 999_999
	m := wire.Get()
	wire.CallHeader{Flags: wire.CallRetryable, Site: cs.ID, Obj: ref.Obj, Seq: forgedSeq, NArgs: 1}.Encode(m)
	m.AppendByte(77) // no such reference marker
	m.SealFrame()
	if err := e.c.Network().Endpoint(0).Send(transport.Packet{To: 1, Payload: m.Detach()}); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for e.c.Counters.MalformedFrames.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("malformed frame never counted")
		}
		time.Sleep(time.Millisecond)
	}

	// The forged key must not linger in the callee's dedup cache. Poll:
	// the entry is admitted before unmarshal and withdrawn on rejection.
	callee := e.c.Node(1)
	held := true
	for deadline = time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		callee.dedupMu.Lock()
		_, held = callee.dedup[dedupKey{from: 0, seq: forgedSeq}]
		callee.dedupMu.Unlock()
		if !held {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if held {
		t.Fatal("dedup cache retained an entry keyed by a malformed frame")
	}

	// The link still serves honest traffic afterwards.
	rets, err := cs.Invoke(e.c.Node(0), ref, []model.Value{model.Ref(e.makeList(3))})
	if err != nil {
		t.Fatalf("honest call after malformed frame: %v", err)
	}
	if rets[0].I != 3 {
		t.Fatalf("sum = %d, want 3", rets[0].I)
	}
}

// TestRetiredClassIDCountsMalformed: class ID 3 belonged to byte[],
// which no compiled program can build; the ID stays unassigned, so a
// class-mode call frame whose argument names it is rejected undecoded
// as malformed, counted on the link it arrived on (node 1's link to its
// sender, node 0), never run, and the link keeps serving.
func TestRetiredClassIDCountsMalformed(t *testing.T) {
	e := newEnv(t, 2)
	var runs atomic.Int64
	sum := e.sumService()
	inner := sum.Methods["sum"]
	sum.Methods["sum"] = func(call *Call, args []model.Value) []model.Value {
		runs.Add(1)
		return inner(call, args)
	}
	ref := e.c.Node(1).Export(sum)
	cs := e.c.MustNewCallSite(LevelClass, SiteSpec{
		Name: "t.sum.1", Method: "sum",
		ArgPlans: []*serial.Plan{e.listPlan("t.sum.1", true, false)},
		RetPlans: []*serial.Plan{intPlan("t.sum.1")},
	})
	if _, err := cs.Invoke(e.c.Node(0), ref, []model.Value{model.Ref(e.makeList(3))}); err != nil {
		t.Fatal(err)
	}

	m := wire.Get()
	wire.CallHeader{Site: cs.ID, Obj: ref.Obj, Seq: 777, NArgs: 1}.Encode(m)
	m.AppendByte(byte(model.FRef))
	m.AppendByte(3) // a new object with its class ID on the wire
	m.AppendInt32(3)
	m.AppendInt32(0) // what was an empty byte[]'s length
	m.SealFrame()
	if err := e.c.Network().Endpoint(0).Send(transport.Packet{To: 1, Payload: m.Detach()}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Second); e.c.Counters.MalformedFrames.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("class ID 3 never counted malformed (method ran %d times)", runs.Load())
		}
		time.Sleep(time.Millisecond)
	}
	var link stats.LinkStat
	for _, l := range e.c.LinkStats() {
		if l.From == 1 && l.To == 0 {
			link = l
		}
	}
	if link.Malformed != 1 {
		t.Fatalf("link 1<-0 counted %d malformed frames, want 1: %+v", link.Malformed, e.c.LinkStats())
	}
	rets, err := cs.Invoke(e.c.Node(0), ref, []model.Value{model.Ref(e.makeList(3))})
	if err != nil || rets[0].I != 3 {
		t.Fatalf("honest call after the class-3 frame: %v, %v", rets, err)
	}
	if runs.Load() != 2 {
		t.Fatalf("method ran %d times, want 2 (the class-3 frame must not run)", runs.Load())
	}
}

// TestUnknownMessageTagCountsMalformed: a CRC-valid frame with an
// unknown tag is a protocol violation, not transport corruption.
func TestUnknownMessageTagCountsMalformed(t *testing.T) {
	e := newEnv(t, 2)
	m := wire.Get()
	m.AppendByte(0xEE)
	m.SealFrame()
	if err := e.c.Network().Endpoint(0).Send(transport.Packet{To: 1, Payload: m.Detach()}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for e.c.Counters.MalformedFrames.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("unknown-tag frame never counted as malformed")
		}
		time.Sleep(time.Millisecond)
	}
	if got := e.c.Counters.CorruptDropped.Load(); got != 0 {
		t.Fatalf("unknown tag miscounted as corruption (%d)", got)
	}
}

// TestRetiredWireValuesCountMalformed sends what a peer built with
// one-way calls, frame batching or promise pipelining could still put
// on the wire: a CRC-valid frame under the retired batch tag 2, and
// calls whose header sets a retired flag bit — 1 (traced, protocol 1),
// 2 (one-way), 3 (promised) and 4 (pipelined, with its promise
// section). Each is a malformed
// frame (not corruption) counted once, each call is answered
// ReplyMalformed under its own seq, none executes, and the node keeps
// answering.
func TestRetiredWireValuesCountMalformed(t *testing.T) {
	tap := &tapNetwork{Network: transport.NewChannelNetwork(2, 64)}
	c := New(2, WithNetwork(tap))
	t.Cleanup(c.Close)
	var execs atomic.Int64
	ref := c.Node(1).Export(countingService(&execs))
	cs := bumpSite(t, c)
	if _, err := cs.Invoke(c.Node(0), ref, []model.Value{model.Int(1)}); err != nil {
		t.Fatal(err)
	}
	tap.take(t, 2)

	batch := wire.Get()
	batch.AppendByte(2)
	batch.AppendInt32(1)
	frames := []*wire.Message{batch}
	for i, flag := range []byte{1 << 1, 1 << 2, 1 << 3, 1 << 4} {
		m := wire.Get()
		wire.CallHeader{Flags: flag, Site: cs.ID, Obj: ref.Obj, Seq: int64(900 + i), NArgs: 1}.Encode(m)
		if flag == 1<<4 {
			// The promise section: one handle naming argument 0.
			m.AppendInt32(1)
			m.AppendInt32(0)
			m.AppendInt64(1)
			m.AppendInt32(0)
		} else {
			m.AppendInt64(1) // a well-formed argument: only the flag is wrong
		}
		frames = append(frames, m)
	}
	for i, m := range frames {
		m.SealFrame()
		if err := tap.Endpoint(0).Send(transport.Packet{To: 1, Payload: m.Detach()}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			tap.take(t, 1) // the batch frame draws no reply
		} else {
			seq := binary.LittleEndian.AppendUint64(nil, uint64(900+i-1))
			want := "01" + hex.EncodeToString(seq) + "03"
			if fr := tap.take(t, 2); !strings.HasPrefix(fr[1], want) {
				t.Errorf("frame %d: reply %s, want a malformed reply %s…", i, fr[1], want)
			}
		}
		deadline := time.Now().Add(2 * time.Second)
		for c.Counters.MalformedFrames.Load() < int64(i+1) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := c.Counters.MalformedFrames.Load(); got != int64(i+1) {
			t.Fatalf("frame %d: MalformedFrames = %d, want %d", i, got, i+1)
		}
	}
	if got := c.Counters.CorruptDropped.Load(); got != 0 {
		t.Errorf("retired values miscounted as corruption (%d)", got)
	}

	vals, err := cs.Invoke(c.Node(0), ref, []model.Value{model.Int(41)})
	if err != nil || vals[0].I != 42 {
		t.Fatalf("call after retired frames: vals=%v err=%v", vals, err)
	}
	if execs.Load() != 2 {
		t.Errorf("executed %d times, want 2 (retired frames must not run)", execs.Load())
	}
	if got := c.Counters.MalformedFrames.Load(); got != int64(len(frames)) {
		t.Errorf("MalformedFrames = %d after the last call, want %d", got, len(frames))
	}
}

func TestNoteMalformedOutOfRangePeer(t *testing.T) {
	e := newEnv(t, 2)
	// A hostile From field outside the cluster must not panic and must
	// still count.
	e.c.Node(0).noteMalformed(99)
	e.c.Node(0).noteMalformed(-3)
	if got := e.c.Counters.MalformedFrames.Load(); got != 2 {
		t.Fatalf("MalformedFrames = %d, want 2", got)
	}
}
