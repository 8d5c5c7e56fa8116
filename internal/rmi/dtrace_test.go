package rmi

import (
	"testing"

	"cormi/internal/model"
	"cormi/internal/serial"
	"cormi/internal/trace"
)

// dtraceSetup builds a traced 2-node cluster serving echo(x)=x+1 with
// node 0 head-sampling every root call.
func dtraceSetup(t *testing.T, opts ...Option) (*Cluster, *trace.Tracer, *CallSite, Ref) {
	t.Helper()
	tr := trace.New(trace.Config{SampleEvery: 1})
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
// child, both named by the call's (from, seq).
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
	if caller.Hop != 0 || caller.Parent != (trace.CallID{}) {
		t.Errorf("caller hop=%d parent=%+v, want a root (0, none)", caller.Hop, caller.Parent)
	}
	if callee.TraceID != caller.TraceID {
		t.Errorf("callee trace %#x, caller trace %#x", callee.TraceID, caller.TraceID)
	}
	if callee.From != caller.From || callee.Seq != caller.Seq || callee.Parent != (trace.CallID{}) {
		t.Errorf("callee call (%d, %d) parent %+v, want the caller's call (%d, %d) and no parent",
			callee.From, callee.Seq, callee.Parent, caller.From, caller.Seq)
	}
	if callee.Hop != 1 {
		t.Errorf("callee hop %d, want 1", callee.Hop)
	}
	if traces[0].Root == "" {
		t.Error("trace summary has no root site")
	}
}

// TestNestedCallNamesItsParentCall: a call issued by a sampled method
// records the call that method serves as its parent, one hop down, and
// the four spans assemble into one tree with no orphan.
func TestNestedCallNamesItsParentCall(t *testing.T) {
	c, tr, cs, echo := dtraceSetup(t)
	const site = "DT.outer.1"
	outerCS := c.MustNewCallSite(LevelSite, SiteSpec{
		Name: site, Method: "outer",
		ArgPlans: []*serial.Plan{serial.PrimitivePlan(site, model.FInt)},
		RetPlans: []*serial.Plan{serial.PrimitivePlan(site, model.FInt)},
	})
	// outer runs on node 0 and calls echo on node 1.
	outer := c.Node(0).Export(&Service{Name: "Outer", Methods: map[string]Method{
		"outer": func(call *Call, args []model.Value) []model.Value {
			vals, err := cs.Invoke(call, echo, args)
			if err != nil {
				panic(err)
			}
			return vals
		},
	}})
	if _, err := outerCS.Invoke(c.Node(1), outer, []model.Value{model.Int(1)}); err != nil {
		t.Fatal(err)
	}
	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("%d traces retained, want 1", len(traces))
	}
	spans := tr.TraceSpans(traces[0].TraceID)
	var root, nested *trace.SpanRecord
	for i := range spans {
		if spans[i].Kind == trace.KindCaller && spans[i].Site == site {
			root = &spans[i]
		} else if spans[i].Kind == trace.KindCaller {
			nested = &spans[i]
		}
	}
	if len(spans) != 4 || root == nil || nested == nil {
		t.Fatalf("spans %+v, want both halves of outer and of echo", spans)
	}
	if want := (trace.CallID{From: root.From, Seq: root.Seq}); nested.Parent != want || nested.Hop != 1 {
		t.Errorf("nested caller parent %+v hop %d, want the outer call %+v at hop 1", nested.Parent, nested.Hop, want)
	}
	tree := trace.BuildTree(traces[0].TraceID, []trace.NodeSpans{{Node: "local", Spans: spans}})
	if len(tree.Roots) != 1 || tree.Orphans != 0 || tree.MaxHop != 2 {
		t.Errorf("tree roots %d orphans %d max hop %d, want 1, 0, 2", len(tree.Roots), tree.Orphans, tree.MaxHop)
	}
}
