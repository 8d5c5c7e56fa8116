package rmi

import (
	"encoding/hex"
	"sync"
	"testing"
	"time"

	"cormi/internal/model"
	"cormi/internal/serial"
	"cormi/internal/trace"
	"cormi/internal/transport"
	"cormi/internal/wire"
)

// tapNetwork records the unsealed payload of every frame a node sends.
type tapNetwork struct {
	transport.Network
	mu     sync.Mutex
	frames [][]byte
}

type tapEndpoint struct {
	transport.Endpoint
	net *tapNetwork
}

func (t *tapNetwork) Endpoint(node int) transport.Endpoint {
	return tapEndpoint{t.Network.Endpoint(node), t}
}

func (e tapEndpoint) Send(p transport.Packet) error {
	if payload, err := wire.Unseal(p.Payload); err == nil {
		e.net.mu.Lock()
		e.net.frames = append(e.net.frames, append([]byte(nil), payload...))
		e.net.mu.Unlock()
	}
	return e.Endpoint.Send(p)
}

// take waits until n frames were sent since the last take and returns
// them hex-encoded, in send order.
func (t *tapNetwork) take(tb testing.TB, n int) []string {
	tb.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		t.mu.Lock()
		if len(t.frames) >= n {
			out := make([]string, len(t.frames))
			for i, f := range t.frames {
				out[i] = hex.EncodeToString(f)
			}
			t.frames = nil
			t.mu.Unlock()
			if len(out) != n {
				tb.Fatalf("%d frames on the wire, want %d: %q", len(out), n, out)
			}
			return out
		}
		t.mu.Unlock()
		if time.Now().After(deadline) {
			tb.Fatalf("fewer than %d frames reached the wire", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// frameFixture is a tapped 2-node cluster serving inc(x)=x+1 on node 1.
type frameFixture struct {
	tap      *tapNetwork
	n0       *Node
	inc, ack *CallSite
	ref      Ref
}

func newFrameFixture(t *testing.T, opts ...Option) frameFixture {
	tap := &tapNetwork{Network: transport.NewChannelNetwork(2, 64)}
	c := New(2, append(opts, WithNetwork(tap))...)
	t.Cleanup(c.Close)
	site := func(name, method string, nargs int, ignoreRet bool) *CallSite {
		spec := SiteSpec{Name: name, Method: method, IgnoreRet: ignoreRet,
			RetPlans: []*serial.Plan{serial.PrimitivePlan(name, model.FInt)}}
		for i := 0; i < nargs; i++ {
			spec.ArgPlans = append(spec.ArgPlans, serial.PrimitivePlan(name, model.FInt))
		}
		return c.MustNewCallSite(LevelSite, spec)
	}
	fx := frameFixture{tap: tap, n0: c.Node(0)}
	fx.inc = site("G.inc.1", "inc", 1, false)
	fx.ack = site("G.inc.2", "inc", 1, true)
	fx.ref = c.Node(1).Export(&Service{Name: "G", Methods: map[string]Method{
		"inc": func(_ *Call, a []model.Value) []model.Value { return []model.Value{model.Int(a[0].I + 1)} },
	}})
	return fx
}

// hexString is the hex of a wire string: int32 length, then the bytes.
func hexString(s string) string {
	n := len(s)
	return hex.EncodeToString(append([]byte{byte(n), byte(n >> 8), byte(n >> 16), byte(n >> 24)}, s...))
}

func checkFrame(t *testing.T, what, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s:\n got %s\nwant %s", what, got, want)
	}
}

// TestFramesOnTheWire pins the bytes a node actually sends — call and
// reply headers with their payloads — for each header shape: a plain
// call and its values reply, a retryable call and its acknowledgment,
// an error reply and a malformed-frame reply. The header prefixes are
// the goldens of wire.TestCallHeaderGoldens; a change here is a
// wire-format change.
func TestFramesOnTheWire(t *testing.T) {
	fx := newFrameFixture(t)
	tap, n0, inc, ack, ref := fx.tap, fx.n0, fx.inc, fx.ack, fx.ref

	// seq 1: plain call, values reply.
	if _, err := inc.Invoke(n0, ref, []model.Value{model.Int(41)}); err != nil {
		t.Fatal(err)
	}
	fr := tap.take(t, 2)
	checkFrame(t, "plain call", fr[0], "0000"+"00000000"+"0000000000000000"+"0100000000000000"+"01000000"+"2900000000000000")
	checkFrame(t, "values reply", fr[1], "01"+"0100000000000000"+"01"+"01000000"+"2a00000000000000")

	// seq 2: retryable call at a site that ignores the result: ack reply.
	ack.SetCallPolicy(CallPolicy{Timeout: time.Minute, Retries: 1})
	if _, err := ack.Invoke(n0, ref, []model.Value{model.Int(1)}); err != nil {
		t.Fatal(err)
	}
	fr = tap.take(t, 2)
	checkFrame(t, "retryable call", fr[0], "0001"+"01000000"+"0000000000000000"+"0200000000000000"+"01000000"+"0100000000000000")
	checkFrame(t, "ack reply", fr[1], "01"+"0200000000000000"+"00")

	// seq 3: no such object: error reply.
	if _, err := inc.Invoke(n0, Ref{Node: 1, Obj: 7}, []model.Value{model.Int(1)}); err == nil {
		t.Fatal("call on a missing object succeeded")
	}
	fr = tap.take(t, 2)
	checkFrame(t, "error reply", fr[1], "01"+"0300000000000000"+"02"+hexString("no object 7 on node 1"))

	// A header truncated after the tag: malformed reply, seq unreadable.
	m := wire.Get()
	m.AppendByte(wire.MsgCall)
	m.SealFrame()
	if err := tap.Endpoint(0).Send(transport.Packet{To: 1, Payload: m.Detach()}); err != nil {
		t.Fatal(err)
	}
	fr = tap.take(t, 2)
	checkFrame(t, "malformed reply", fr[1], "01"+"0000000000000000"+"03"+
		hexString("bad call header: wire: malformed frame: read past end of message: need 1 bytes at offset 1 of 1"))
}

// TestTracedFrameOnTheWire pins a traced call carrying a trace context.
// The context's parent is the caller span's ID, drawn from the tracer's
// random base, so those eight bytes are masked.
func TestTracedFrameOnTheWire(t *testing.T) {
	fx := newFrameFixture(t, WithNodeTracer(0, trace.New(trace.Config{RingSize: 64})))
	tap, n0, inc, ref := fx.tap, fx.n0, fx.inc, fx.ref
	// A nested call from inside a sampled invocation at hop 2.
	call := &Call{Node: n0, From: n0.ID, tctx: wire.TraceContext{TraceID: 0x1122334455667788, Parent: 9, Hop: 2}}
	if _, err := inc.Invoke(call, ref, []model.Value{model.Int(5)}); err != nil {
		t.Fatal(err)
	}
	fr := tap.take(t, 2)
	const parentAt = 2 * (26 + 8)
	masked := fr[0][:parentAt] + "----------------" + fr[0][parentAt+16:]
	checkFrame(t, "traced call + ctx", masked, "0022"+"00000000"+"0000000000000000"+"0100000000000000"+"01000000"+
		"8877665544332211"+"----------------"+"03"+"0500000000000000")
	checkFrame(t, "values reply", fr[1], "01"+"0100000000000000"+"01"+"01000000"+"0600000000000000")
}
