package rmi

import (
	"encoding/hex"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cormi/internal/model"
	"cormi/internal/serial"
	"cormi/internal/transport"
	"cormi/internal/wire"
)

// TestHomogeneousNegotiation: identical registries must negotiate to a
// nil plan table (the one-nil-check hot path) and count zero fallbacks.
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
	if l.lp != nil {
		t.Fatalf("homogeneous link negotiated %d demotions", l.lp.DemotedCount())
	}
	if l.version != wire.ProtocolVersion {
		t.Fatalf("negotiated version %d", l.version)
	}
	if fb := e.c.Counters.PlanFallbacks.Load(); fb != 0 {
		t.Fatalf("homogeneous cluster counted %d fallbacks", fb)
	}
}

// TestSkewedClusterDemotesAndStaysCorrect: with node 1 skewed, site
// calls still return correct results, fallbacks are counted, and
// LinkStats reports the demotions.
func TestSkewedClusterDemotesAndStaysCorrect(t *testing.T) {
	e := newEnv(t, 2, WithPlanSkew(1))
	ref := e.c.Node(1).Export(e.sumService())
	cs := e.c.MustNewCallSite(LevelSite, SiteSpec{
		Name: "t.sum.1", Method: "sum",
		ArgPlans: []*serial.Plan{e.listPlan("t.sum.1", true, false)},
		RetPlans: []*serial.Plan{intPlan("t.sum.1")},
	})
	for i := 0; i < 4; i++ {
		rets, err := cs.Invoke(e.c.Node(0), ref, []model.Value{model.Ref(e.makeList(10))})
		if err != nil {
			t.Fatal(err)
		}
		if rets[0].I != 45 {
			t.Fatalf("sum over skewed link = %d, want 45", rets[0].I)
		}
	}
	if fb := e.c.Counters.PlanFallbacks.Load(); fb == 0 {
		t.Fatal("skewed link counted no plan fallbacks")
	}
	ls := e.c.LinkStats()
	if len(ls) == 0 {
		t.Fatal("no negotiated links reported")
	}
	var saw bool
	for _, l := range ls {
		if l.From == 0 && l.To == 1 {
			saw = true
			if l.DemotedClasses == 0 {
				t.Error("link 0->1 reports no demoted classes")
			}
			if l.Fallbacks == 0 {
				t.Error("link 0->1 reports no fallbacks")
			}
			if l.PeerPlans != 2 {
				t.Errorf("peer plan generation %d, want 2 (skewed)", l.PeerPlans)
			}
		}
	}
	if !saw {
		t.Fatalf("link 0->1 missing from %+v", ls)
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
// calls whose header sets a retired flag bit — 2 (one-way), 3 (promised)
// and 4 (pipelined, with its promise section). Each is a malformed
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
	for i, flag := range []byte{1 << 2, 1 << 3, 1 << 4} {
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
			seq := wire.NewMessage(8)
			seq.AppendInt64(int64(900 + i - 1))
			want := "01" + hex.EncodeToString(seq.Bytes()) + "03"
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
