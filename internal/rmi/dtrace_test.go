package rmi

import (
	"testing"

	"cormi/internal/model"
	"cormi/internal/serial"
	"cormi/internal/trace"
	"cormi/internal/wire"
)

// WithoutCaps strips capability bits from node's HELLO advertisement,
// simulating a peer that does not implement an optional protocol
// feature (trace-context propagation). Links touching the node
// negotiate the masked features away and the calls run without them —
// this package's capability-demotion
// test knob.
func WithoutCaps(node int, caps uint32) Option {
	return func(o *clusterOpts) {
		if o.capsMask == nil {
			o.capsMask = make(map[int]uint32)
		}
		o.capsMask[node] |= caps
	}
}

// dtraceSetup builds a traced 2-node cluster serving echo(x)=x+1 with
// node 0 head-sampling every root call.
func dtraceSetup(t *testing.T, opts ...Option) (*Cluster, *trace.Tracer, *CallSite, Ref) {
	t.Helper()
	tr := trace.New(trace.Config{RingSize: 256, SampleEvery: 1})
	c := New(2, append([]Option{WithTracer(tr)}, opts...)...)
	t.Cleanup(c.Close)
	const site = "DT.echo.1"
	cs, err := c.NewCallSite(LevelSite, SiteSpec{
		Name: site, Method: "echo",
		ArgPlans: []*serial.Plan{serial.PrimitivePlan(site, model.FInt)},
		RetPlans: []*serial.Plan{serial.PrimitivePlan(site, model.FInt)},
		NumRet:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := c.Node(1).Export(&Service{Name: "DT", Methods: map[string]Method{
		"echo": func(call *Call, args []model.Value) []model.Value {
			return []model.Value{model.Int(args[0].I + 1)}
		},
	}})
	return c, tr, cs, ref
}

// TestTraceContextPropagatesSyncCall proves one sampled synchronous
// call yields a two-span trace: a hop-0 caller root and a hop-1 callee
// child linked by parent ID.
func TestTraceContextPropagatesSyncCall(t *testing.T) {
	c, tr, cs, ref := dtraceSetup(t)
	if _, err := cs.Invoke(c.Node(0), ref, []model.Value{model.Int(1)}); err != nil {
		t.Fatal(err)
	}
	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("%d traces retained, want 1", len(traces))
	}
	spans := tr.TraceSpans(traces[0].TraceID)
	if len(spans) != 2 {
		t.Fatalf("%d spans, want caller + callee", len(spans))
	}
	var caller, callee *trace.SpanRecord
	for i := range spans {
		switch spans[i].Kind {
		case trace.KindCaller:
			caller = &spans[i]
		case trace.KindCallee:
			callee = &spans[i]
		}
	}
	if caller == nil || callee == nil {
		t.Fatalf("missing a half: %+v", spans)
	}
	if caller.Hop != 0 || caller.ParentID != 0 {
		t.Errorf("caller hop=%d parent=%d, want root (0, 0)", caller.Hop, caller.ParentID)
	}
	if callee.TraceID != caller.TraceID {
		t.Errorf("callee trace %#x, caller trace %#x", callee.TraceID, caller.TraceID)
	}
	if callee.ParentID != caller.SpanID {
		t.Errorf("callee parent %#x, want the caller span %#x", callee.ParentID, caller.SpanID)
	}
	if callee.Hop != 1 {
		t.Errorf("callee hop %d, want 1", callee.Hop)
	}
	if traces[0].Root == "" {
		t.Error("trace summary has no root site")
	}
}

// TestTraceContextCapDemotion proves per-link capability demotion: a
// peer whose HELLO does not advertise CapTracing receives no trace
// context — the caller's root span still records and samples, the
// callee executes correctly but contributes no span to the trace.
func TestTraceContextCapDemotion(t *testing.T) {
	c, tr, cs, ref := dtraceSetup(t, WithoutCaps(1, wire.CapTracing))
	vals, err := cs.Invoke(c.Node(0), ref, []model.Value{model.Int(41)})
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].I != 42 {
		t.Fatalf("echo over demoted link = %d, want 42", vals[0].I)
	}
	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("%d traces retained, want the caller's root alone", len(traces))
	}
	spans := tr.TraceSpans(traces[0].TraceID)
	if len(spans) != 1 || spans[0].Kind != trace.KindCaller {
		t.Fatalf("demoted link leaked callee spans into the trace: %+v", spans)
	}
}
