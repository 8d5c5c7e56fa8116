package trace

import (
	"bytes"
	"encoding/json"
	"testing"
)

// skewedPair is one traced call across two nodes whose callee clock
// runs off ns ahead of the caller's, with every phase each half
// records. True transit is 100 ns each way: the caller sends at 1100
// and the callee receives at 1200 (+off); the callee replies at 1400
// (+off) and the caller receives at 1500.
func skewedPair(traceID uint64, off int64) []SpanRecord {
	caller := mkSpan(traceID, CallID{}, 0, KindCaller, 0, 1, 10, 1000, 1600)
	callee := mkSpan(traceID, CallID{}, 1, KindCallee, 0, 1, 10, 1200+off, 1400+off)
	set := func(r *SpanRecord, p Phase, start, dur int64) { r.PhaseStart[p], r.PhaseDur[p] = start, dur }
	set(&caller, PhaseSerialize, 1010, 60)
	set(&caller, PhaseSend, 1070, 30)
	set(&caller, PhaseWaitReply, 1100, 400)
	set(&caller, PhaseReplyTransit, 1400+off, 1500-(1400+off))
	set(&caller, PhaseReplyDeserialize, 1500, 90)
	set(&callee, PhaseTransit, 1100, (1200+off)-1100)
	set(&callee, PhasePlanLookup, 1200+off, 10)
	set(&callee, PhaseDeserialize, 1210+off, 40)
	set(&callee, PhaseExecute, 1250+off, 100)
	set(&callee, PhaseReplySerialize, 1350+off, 40)
	return []SpanRecord{caller, callee}
}

// checkPlacement fails when a dump draws an event before its epoch or
// a phase outside the span it belongs to (same process, track and
// seq), the nesting Perfetto shows as "phases under the call".
func checkPlacement(t *testing.T, what string, dump []byte) {
	t.Helper()
	var doc chromeTrace
	if err := json.Unmarshal(dump, &doc); err != nil {
		t.Fatalf("%s: dump does not parse: %v", what, err)
	}
	type track struct {
		pid, tid int
		seq      any
	}
	type window struct{ from, to float64 }
	spans := map[track]window{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Cat != "phase" {
			spans[track{e.PID, e.TID, e.Args["seq"]}] = window{e.TS, e.TS + e.Dur}
		}
	}
	phases := 0
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		if e.TS < 0 {
			t.Errorf("%s: %s drawn at ts=%g, before the dump's epoch", what, e.Name, e.TS)
		}
		if e.Cat != "phase" {
			continue
		}
		phases++
		w, ok := spans[track{e.PID, e.TID, e.Args["seq"]}]
		if !ok {
			t.Errorf("%s: phase %s has no span on its track", what, e.Name)
			continue
		}
		if e.TS < w.from-1e-6 || e.TS+e.Dur > w.to+1e-6 {
			t.Errorf("%s: phase %s [%g, %g] outside its span [%g, %g]", what, e.Name, e.TS, e.TS+e.Dur, w.from, w.to)
		}
	}
	if phases == 0 {
		t.Errorf("%s: no phase events drawn", what)
	}
}

// TestChromeDumpPhasesInsideSpans draws a flight-recorder dump and a
// two-node tree whose clocks differ by 1 ms. The transit legs start on
// the other node's clock, so drawing them as phases put them outside
// their span, and before a lone callee span at a negative timestamp;
// every event must start at or after the epoch, and every phase inside
// its span.
func TestChromeDumpPhasesInsideSpans(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Config{FailureDump: &buf})
	recv := Now() - 100_000
	sp := tr.StartCallee("A.b.1", "b", 2, 5, 9, recv)
	sp.SetPhase(PhaseTransit, recv-5_000, 5_000)
	sp.SetPhase(PhasePlanLookup, recv, 1_000)
	sp.SetPhase(PhaseExecute, recv+1_000, 2_000)
	sp.End()
	sp = tr.StartCaller("W.fire.1", "fire", 5, 2, 11)
	sp.BeginPhase(PhaseSerialize)
	sp.EndPhase(PhaseSerialize)
	sp.SetPhase(PhaseReplyTransit, Now()+1_000_000, 100)
	sp.End()
	tr.DumpFailure("timeout")
	checkPlacement(t, "flight dump", buf.Bytes())

	pair := skewedPair(7, 1_000_000)
	tree := BuildTree(7, []NodeSpans{{Node: "a", Spans: pair[:1]}, {Node: "b", Spans: pair[1:]}})
	buf.Reset()
	if err := WriteChrome(&buf, tree.Spans, nil); err != nil {
		t.Fatal(err)
	}
	checkPlacement(t, "two-node tree", buf.Bytes())
}
