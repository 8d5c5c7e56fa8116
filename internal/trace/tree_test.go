package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// mkSpan builds one span record for reconstruction tests.
func mkSpan(traceID uint64, parent CallID, hop uint8, kind Kind, from, to int, seq, start, end int64) SpanRecord {
	return SpanRecord{
		Site: "T.m.1", Method: "m", From: from, To: to, Seq: seq,
		Kind: kind, Start: start, End: end,
		TraceID: traceID, Parent: parent, Hop: hop,
	}
}

// spanOf returns the tree's span of the given half of call (from, seq),
// or nil.
func spanOf(tree *Tree, kind Kind, from int, seq int64) *TreeSpan {
	for i := range tree.Spans {
		if s := &tree.Spans[i]; s.Kind == kind && s.From == from && s.Seq == seq {
			return s
		}
	}
	return nil
}

// TestBuildTreeAlignsOffsetsLargerThanSpans reconstructs a two-node
// trace whose callee clock runs a full millisecond ahead — orders of
// magnitude more than any span's duration. Unaligned, the callee span
// would start long after the whole trace ended; the transit stamp
// pairs must recover the offset exactly and rebase the callee inside
// its caller's window.
func TestBuildTreeAlignsOffsetsLargerThanSpans(t *testing.T) {
	const off = int64(1_000_000) // callee clock = caller clock + 1ms
	caller := mkSpan(7, CallID{}, 0, KindCaller, 0, 1, 10, 1000, 1600)
	callee := mkSpan(7, CallID{}, 1, KindCallee, 0, 1, 10, 1200+off, 1400+off)
	// True transit 100ns each way: t1=1100 (caller clock), t2 on the
	// callee clock; reply t3 on the callee clock, t4=1500 (caller).
	callee.PhaseDur[PhaseTransit] = (1200 + off) - 1100      // t2 - t1
	caller.PhaseDur[PhaseReplyTransit] = 1500 - (1400 + off) // t4 - t3

	tree := BuildTree(7, []NodeSpans{
		{Node: "a", Spans: []SpanRecord{caller}},
		{Node: "b", Spans: []SpanRecord{callee}},
	})
	if len(tree.Spans) != 2 || len(tree.Roots) != 1 {
		t.Fatalf("got %d spans, %d roots, want 2 and 1", len(tree.Spans), len(tree.Roots))
	}
	var cal, cee *TreeSpan
	for i := range tree.Spans {
		if tree.Spans[i].Kind == KindCallee {
			cee = &tree.Spans[i]
		} else {
			cal = &tree.Spans[i]
		}
	}
	if cee.OffsetNS != off {
		t.Errorf("callee offset %d, want the injected %d", cee.OffsetNS, off)
	}
	if cee.AlignedStart() != 1200 {
		t.Errorf("aligned callee start %d, want 1200 (rebased onto the caller clock)", cee.AlignedStart())
	}
	if cee.AlignedStart() < cal.AlignedStart() || cee.End-cee.OffsetNS > cal.End-cal.OffsetNS {
		t.Errorf("aligned callee [%d,%d] outside caller window [%d,%d]",
			cee.AlignedStart(), cee.End-cee.OffsetNS, cal.AlignedStart(), cal.End-cal.OffsetNS)
	}
	if tree.EndToEndNS != 600 {
		t.Errorf("end-to-end %dns, want the caller's 600ns window", tree.EndToEndNS)
	}
	if tree.CriticalPathNS <= 0 || tree.CriticalPathNS > tree.EndToEndNS {
		t.Errorf("critical path %dns outside (0, %d]", tree.CriticalPathNS, tree.EndToEndNS)
	}
}

// TestBuildTreeOrphanSpans grafts spans whose parent is missing
// (unsampled parent, unreachable node, evicted bucket) in as extra
// roots instead of dropping their subtrees.
func TestBuildTreeOrphanSpans(t *testing.T) {
	root := mkSpan(9, CallID{}, 0, KindCaller, 0, 1, 1, 100, 500)
	// The caller half of call (0, 2) was never retained; its callee half
	// and the call that callee's method issued must still render,
	// connected to each other.
	orphan := mkSpan(9, CallID{}, 1, KindCallee, 0, 1, 2, 200, 400)
	grand := mkSpan(9, CallID{From: 0, Seq: 2}, 1, KindCaller, 1, 2, 3, 250, 350)
	tree := BuildTree(9, []NodeSpans{{Node: "a", Spans: []SpanRecord{root, orphan, grand}}})
	if tree.Orphans != 1 {
		t.Fatalf("Orphans = %d, want 1", tree.Orphans)
	}
	if len(tree.Roots) != 2 {
		t.Fatalf("%d roots, want 2 (true root + grafted orphan)", len(tree.Roots))
	}
	o := spanOf(tree, KindCallee, 0, 2)
	if o == nil || !o.Orphan {
		t.Fatal("callee of call (0, 2) not flagged orphan")
	}
	if len(o.Children) != 1 || tree.Spans[o.Children[0]].Seq != 3 {
		t.Errorf("orphan subtree lost its child: %+v", o.Children)
	}
	// The primary root for the end-to-end window must be the real
	// (non-orphan) root.
	if tree.Spans[tree.Roots[0]].Seq != 1 && tree.Spans[tree.Roots[1]].Seq != 1 {
		t.Error("true root missing from roots")
	}
	if tree.EndToEndNS != 400 {
		t.Errorf("end-to-end %d, want 400 (root start 100 to latest end 500)", tree.EndToEndNS)
	}
}

// TestBuildTreeDuplicateSpans discards redeliveries both ways a retry
// can produce them: the same span fetched from two stores, and the same
// call half re-executed after a dedup-cache eviction (same
// kind/from/seq, a later start).
func TestBuildTreeDuplicateSpans(t *testing.T) {
	root := mkSpan(11, CallID{}, 0, KindCaller, 0, 1, 1, 100, 500)
	callee := mkSpan(11, CallID{}, 1, KindCallee, 0, 1, 1, 200, 300)
	sameID := callee
	reexec := mkSpan(11, CallID{}, 1, KindCallee, 0, 1, 1, 350, 450)
	tree := BuildTree(11, []NodeSpans{
		{Node: "a", Spans: []SpanRecord{root}},
		{Node: "b", Spans: []SpanRecord{callee, reexec}},
		{Node: "b2", Spans: []SpanRecord{sameID}},
	})
	if tree.Duplicates != 2 {
		t.Fatalf("Duplicates = %d, want 2 (second copy + re-executed half)", tree.Duplicates)
	}
	if len(tree.Spans) != 2 {
		t.Fatalf("%d spans retained, want 2", len(tree.Spans))
	}
	if s := spanOf(tree, KindCallee, 0, 1); s == nil || s.Start != 200 {
		t.Errorf("callee retained %+v; the first execution (start 200) should win", s)
	}
	if len(tree.Roots) != 1 || tree.Orphans != 0 {
		t.Errorf("roots=%d orphans=%d, want a single clean root", len(tree.Roots), tree.Orphans)
	}
}

// TestBuildTreeAbandonedCallLeaf reconstructs a trace ending in a call
// whose caller timed out before the reply landed: the caller half
// records no reply transit, so clock alignment falls back to the
// one-sided (transit-biased) sample, and the callee, still running
// after its caller gave up, is a leaf that carries the critical path's
// tail.
func TestBuildTreeAbandonedCallLeaf(t *testing.T) {
	root := mkSpan(13, CallID{}, 0, KindCaller, 0, 1, 1, 100, 300)
	root.Err = "call timed out" // caller half ends without a reply leg
	callee := mkSpan(13, CallID{}, 1, KindCallee, 0, 1, 1, 400, 900)
	callee.PhaseDur[PhaseTransit] = 150 // one-sided sample only
	tree := BuildTree(13, []NodeSpans{
		{Node: "a", Spans: []SpanRecord{root}},
		{Node: "b", Spans: []SpanRecord{callee}},
	})
	leaf := spanOf(tree, KindCallee, 0, 1)
	if leaf == nil {
		t.Fatal("abandoned callee missing from tree")
	}
	if len(leaf.Children) != 0 {
		t.Errorf("abandoned callee not a leaf: children=%v", leaf.Children)
	}
	// The weak sample is the whole transit duration: offset estimate
	// d1 = 150, so the callee rebases from 400 to 250.
	if leaf.OffsetNS != 150 || leaf.AlignedStart() != 250 {
		t.Errorf("one-sided alignment: offset=%d start=%d, want 150 and 250", leaf.OffsetNS, leaf.AlignedStart())
	}
	// The callee outlives the caller that abandoned it: it is the
	// latest-ending span and must terminate the critical path, which
	// credits it [250, 750] and the root the 150 ns before it.
	if !leaf.Critical || !spanOf(tree, KindCaller, 0, 1).Critical {
		t.Error("abandoned leaf or its root not marked critical")
	}
	if tree.CriticalPathNS != 650 {
		t.Errorf("critical path %d ns, want 650 (root 100 to leaf end 750)", tree.CriticalPathNS)
	}
}

// TestBuildTreeEmptyAndForeign ignores spans of other traces and
// returns an empty tree rather than failing when nothing matches.
func TestBuildTreeEmptyAndForeign(t *testing.T) {
	other := mkSpan(99, CallID{}, 0, KindCaller, 0, 1, 1, 100, 200)
	tree := BuildTree(5, []NodeSpans{{Node: "a", Spans: []SpanRecord{other}}})
	if len(tree.Spans) != 0 || len(tree.Roots) != 0 || tree.EndToEndNS != 0 {
		t.Fatalf("foreign spans leaked into the tree: %+v", tree)
	}
}

// TestWriteChromeMerged pins the merged Perfetto dump's shape: one
// process per node, aligned timestamps, and the critical category on
// critical-path spans.
func TestWriteChromeMerged(t *testing.T) {
	const off = int64(1_000_000)
	caller := mkSpan(7, CallID{}, 0, KindCaller, 0, 1, 10, 1000, 1600)
	callee := mkSpan(7, CallID{}, 1, KindCallee, 0, 1, 10, 1200+off, 1400+off)
	callee.PhaseDur[PhaseTransit] = (1200 + off) - 1100
	caller.PhaseDur[PhaseReplyTransit] = 1500 - (1400 + off)
	tree := BuildTree(7, []NodeSpans{
		{Node: "a", Spans: []SpanRecord{caller}},
		{Node: "b", Spans: []SpanRecord{callee}},
	})
	var buf bytes.Buffer
	if err := WriteChrome(&buf, tree.Spans, nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("dump not valid JSON: %v", err)
	}
	pids := map[float64]bool{}
	var critical int
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" {
			pids[ev["pid"].(float64)] = true
			if ev["cat"] == "critical" {
				critical++
			}
		}
	}
	if len(pids) != 2 {
		t.Errorf("%d process groups, want one per node (2)", len(pids))
	}
	if critical == 0 {
		t.Error("no span carries the critical category")
	}
	if !strings.Contains(buf.String(), "process_name") {
		t.Error("process metadata events missing")
	}
}
