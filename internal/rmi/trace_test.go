package rmi

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cormi/internal/model"
	"cormi/internal/serial"
	"cormi/internal/trace"
	"cormi/internal/transport"
)

// syncBuffer is a mutex-guarded dump sink: the callee writes failure
// dumps from its own goroutine, concurrently with the test reading.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// waitDump polls until the sink holds a complete JSON document.
func (b *syncBuffer) waitDump(t *testing.T) []byte {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if d := b.Bytes(); len(d) > 0 && json.Valid(d) {
			return d
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no flight-recorder dump arrived")
	return nil
}

// spansFor filters the flight recorder to one call id.
func spansFor(recs []trace.SpanRecord, seq int64) (caller, callee *trace.SpanRecord) {
	for i := range recs {
		r := &recs[i]
		if r.Seq != seq {
			continue
		}
		if r.Kind == trace.KindCaller {
			caller = r
		} else {
			callee = r
		}
	}
	return caller, callee
}

func TestTracedCallProducesBothSpans(t *testing.T) {
	tr := trace.New(trace.Config{})
	e := newEnv(t, 2, WithTracer(tr))
	var execs atomic.Int64
	ref := e.c.Node(1).Export(countingService(&execs))
	cs := bumpSite(t, e.c)

	out, err := cs.Invoke(e.c.Node(0), ref, []model.Value{model.Int(41)})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].I != 42 {
		t.Fatalf("result = %d, want 42", out[0].I)
	}

	recs := tr.Recent()
	if len(recs) != 2 {
		t.Fatalf("flight recorder holds %d spans, want 2 (caller+callee)", len(recs))
	}
	caller, callee := spansFor(recs, 1)
	if caller == nil || callee == nil {
		t.Fatalf("missing span half: caller=%v callee=%v", caller, callee)
	}
	if caller.Site != "t.bump.1" || callee.Site != "t.bump.1" {
		t.Errorf("sites = %q/%q, want t.bump.1", caller.Site, callee.Site)
	}
	if caller.From != 0 || caller.To != 1 || callee.From != 0 || callee.To != 1 {
		t.Errorf("endpoints: caller %d→%d callee %d→%d, want 0→1 both",
			caller.From, caller.To, callee.From, callee.To)
	}
	if caller.Err != "" || callee.Err != "" {
		t.Errorf("unexpected errors: %q / %q", caller.Err, callee.Err)
	}

	// The halves must carry their respective phases.
	for _, p := range []trace.Phase{
		trace.PhaseSerialize, trace.PhaseSend, trace.PhaseWaitReply,
		trace.PhaseReplyDeserialize,
	} {
		if caller.PhaseDur[p] <= 0 {
			t.Errorf("caller phase %s not recorded", p)
		}
	}
	for _, p := range []trace.Phase{
		trace.PhasePlanLookup, trace.PhaseTransit, trace.PhaseDispatch,
		trace.PhaseDeserialize, trace.PhaseExecute, trace.PhaseReplySerialize,
	} {
		if callee.PhaseDur[p] <= 0 {
			t.Errorf("callee phase %s not recorded", p)
		}
	}
	// Reply transit needs the reply packet's wall timestamps.
	if caller.PhaseDur[trace.PhaseReplyTransit] <= 0 {
		t.Error("caller reply_transit not recorded (reply wall timestamps lost)")
	}
	if callee.VirtualTransitNS <= 0 {
		t.Error("callee virtual transit not recorded")
	}

	// Histograms summarize the same call.
	sites := tr.Attribution()
	if len(sites) == 0 {
		t.Fatal("Attribution empty after a traced call")
	}
	var sawExecute bool
	for _, sa := range sites {
		if sa.Site != "t.bump.1" {
			t.Errorf("unexpected site %q in attribution", sa.Site)
		}
		for _, ph := range sa.Phases {
			if ph.Phase == "execute" {
				sawExecute = true
				if ph.Hist.Total != 1 || ph.Hist.Quantile(0.50) <= 0 {
					t.Errorf("execute histogram = %+v, want count 1 and positive p50", ph.Hist)
				}
			}
		}
	}
	if !sawExecute {
		t.Error("no execute phase in Attribution")
	}
}

// TestWallStampMarksTracedCall: a callee opens its span exactly when
// the call's packet carries a wall stamp, which only a caller with a
// tracer sets. A traced callee under an untraced caller records nothing.
func TestWallStampMarksTracedCall(t *testing.T) {
	for _, callerTraced := range []bool{false, true} {
		callee := trace.New(trace.Config{})
		opts := []Option{WithNodeTracer(1, callee)}
		if callerTraced {
			opts = append(opts, WithNodeTracer(0, trace.New(trace.Config{})))
		}
		e := newEnv(t, 2, opts...)
		var execs atomic.Int64
		ref := e.c.Node(1).Export(countingService(&execs))
		if _, err := bumpSite(t, e.c).Invoke(e.c.Node(0), ref, []model.Value{model.Int(1)}); err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if callerTraced {
			want = 1
		}
		if got := callee.SpansStarted(); got != want {
			t.Errorf("caller traced %v: callee opened %d spans, want %d", callerTraced, got, want)
		}
	}
}

func TestUntracedClusterRecordsNothing(t *testing.T) {
	e := newEnv(t, 2)
	var execs atomic.Int64
	ref := e.c.Node(1).Export(countingService(&execs))
	cs := bumpSite(t, e.c)
	if _, err := cs.Invoke(e.c.Node(0), ref, []model.Value{model.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if e.c.tracer != nil {
		t.Fatal("untraced cluster has a tracer")
	}
}

func TestTimeoutDumpsFlightRecorder(t *testing.T) {
	// Drop every reply 1→0: the call times out, and the tracer must
	// auto-dump a Chrome trace containing the failing call's spans.
	var dump syncBuffer
	tr := trace.New(trace.Config{FailureDump: &dump})
	e := newEnv(t, 2,
		WithTracer(tr),
		withOneWayLoss(2, 1, 0))
	var execs atomic.Int64
	ref := e.c.Node(1).Export(countingService(&execs))
	cs := bumpSite(t, e.c)

	cs.SetCallPolicy(CallPolicy{Timeout: 15 * time.Millisecond, Retries: 2, Backoff: time.Millisecond})
	_, err := cs.Invoke(e.c.Node(0), ref, []model.Value{model.Int(7)})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}

	raw := dump.waitDump(t)
	var parsed struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatalf("dump is not valid Chrome-trace JSON: %v", err)
	}
	if parsed.OtherData["reason"] != "timeout" {
		t.Errorf("dump reason = %q, want timeout", parsed.OtherData["reason"])
	}
	var sawFailing bool
	for _, ev := range parsed.TraceEvents {
		if ev.Name == "t.bump.1" {
			if errStr, _ := ev.Args["err"].(string); strings.Contains(errStr, "timeout") {
				sawFailing = true
			}
		}
	}
	if !sawFailing {
		t.Error("dump does not contain the failing call's span")
	}

	// The caller span records every retransmit.
	caller, _ := spansFor(tr.Recent(), 1)
	if caller == nil {
		t.Fatal("failing caller span not in flight recorder")
	}
	if caller.Retries != 2 {
		t.Errorf("caller retries = %d, want 2", caller.Retries)
	}
	if caller.Err != "timeout" {
		t.Errorf("caller err = %q, want timeout", caller.Err)
	}
}

func TestPanicDumpsFlightRecorder(t *testing.T) {
	var dump syncBuffer
	tr := trace.New(trace.Config{FailureDump: &dump})
	e := newEnv(t, 2, WithTracer(tr))
	ref := e.c.Node(1).Export(&Service{
		Name: "Boom",
		Methods: map[string]Method{
			"bump": func(call *Call, args []model.Value) []model.Value {
				panic("kaboom")
			},
		},
	})
	cs := bumpSite(t, e.c)
	_, err := cs.Invoke(e.c.Node(0), ref, []model.Value{model.Int(1)})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want remote panic", err)
	}
	dump.waitDump(t)
	if tr.Failures() == 0 {
		t.Error("tracer counted no failures after a panic")
	}
}

func TestTracedRemoteErrorFailsBothSpans(t *testing.T) {
	tr := trace.New(trace.Config{})
	e := newEnv(t, 2, WithTracer(tr))
	// No object exported: lookup fails on the callee, which replies
	// with a remote error before a callee span exists.
	cs := bumpSite(t, e.c)
	_, err := cs.Invoke(e.c.Node(0), Ref{Node: 1, Obj: 99}, []model.Value{model.Int(1)})
	if err == nil {
		t.Fatal("expected remote error")
	}
	caller, _ := spansFor(tr.Recent(), 1)
	if caller == nil {
		t.Fatal("caller span missing")
	}
	if caller.Err == "" {
		t.Error("caller span not marked failed on remote error")
	}
}

func TestTracedCallOverTCP(t *testing.T) {
	// Wall timestamps must survive the real network stack: transit and
	// reply-transit phases come from the TCP frame header.
	tr := trace.New(trace.Config{})
	tn, err := transport.NewTCPNetworkLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	c := New(2, WithNetwork(tn), WithTracer(tr))
	t.Cleanup(c.Close)
	var execs atomic.Int64
	ref := c.Node(1).Export(countingService(&execs))
	cs := c.MustNewCallSite(LevelSite, SiteSpec{
		Name: "t.bump.1", Method: "bump",
		ArgPlans: []*serial.Plan{intPlan("t.bump.1")},
		RetPlans: []*serial.Plan{intPlan("t.bump.1")},
	})
	out, err := cs.Invoke(c.Node(0), ref, []model.Value{model.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].I != 2 {
		t.Fatalf("result = %d, want 2", out[0].I)
	}
	caller, callee := spansFor(tr.Recent(), 1)
	if caller == nil || callee == nil {
		t.Fatalf("missing span half over TCP: caller=%v callee=%v", caller, callee)
	}
	if callee.PhaseDur[trace.PhaseTransit] <= 0 {
		t.Error("call transit not measured over TCP")
	}
	if caller.PhaseDur[trace.PhaseReplyTransit] <= 0 {
		t.Error("reply transit not measured over TCP")
	}
}
