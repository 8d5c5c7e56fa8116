package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// The two Chrome writers WriteChrome replaced, kept as the oracle for
// TestWriteChromeMatchesReference: refWriteChrome rendered a flat
// flight-recorder slice, refWriteChromeMerged a reconstructed tree.
// Only the tree fields are respelled for TreeSpan (StartNS is
// AlignedStart, DurNS is End-Start, Kind was a string); the logic is
// the replaced code's.

func refWriteChrome(w io.Writer, spans []SpanRecord, reason string) error {
	var epoch int64
	for i := range spans {
		if s := spans[i].Start; epoch == 0 || (s > 0 && s < epoch) {
			epoch = s
		}
	}
	us := func(ns int64) float64 { return float64(ns-epoch) / 1e3 }

	tr := chromeTrace{DisplayTimeUnit: "ms"}
	if reason != "" {
		tr.OtherData = map[string]any{"reason": reason}
	}
	seenPID := map[int]bool{}
	for i := range spans {
		s := &spans[i]
		pid, tid := s.From, tidCaller
		if s.Kind == KindCallee {
			pid, tid = s.To, tidCallee
		}
		if !seenPID[pid] {
			seenPID[pid] = true
			tr.TraceEvents = append(tr.TraceEvents, trackMetadata(pid, "node")...)
		}
		args := map[string]any{
			"site": s.Site, "method": s.Method, "from": s.From, "to": s.To,
			"seq": s.Seq, "kind": s.Kind.String(),
		}
		if s.Err != "" {
			args["err"] = s.Err
		}
		if s.Retries > 0 {
			args["retries"] = s.Retries
		}
		if s.VirtualTransitNS > 0 {
			args["virtual_transit_ns"] = s.VirtualTransitNS
		}
		dur := float64(s.End-s.Start) / 1e3
		if dur <= 0 {
			dur = 0.001
		}
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: s.Site, Ph: "X", Cat: s.Kind.String(),
			TS: us(s.Start), Dur: dur, PID: pid, TID: tid, Args: args,
		})
		for p := Phase(0); p < NumPhases; p++ {
			d := s.PhaseDur[p]
			if d <= 0 {
				continue
			}
			start := s.PhaseStart[p]
			if start == 0 {
				start = s.Start
			}
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: p.String(), Ph: "X", Cat: "phase",
				TS: us(start), Dur: float64(d) / 1e3, PID: pid, TID: tid,
				Args: map[string]any{"seq": s.Seq},
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(tr)
}

func refWriteChromeMerged(w io.Writer, tr *Tree) error {
	var epoch int64
	for i := range tr.Spans {
		if s := tr.Spans[i].AlignedStart(); epoch == 0 || s < epoch {
			epoch = s
		}
	}
	us := func(ns int64) float64 { return float64(ns-epoch) / 1e3 }

	out := chromeTrace{
		DisplayTimeUnit: "ms",
		OtherData: map[string]any{
			"trace_id":         tr.TraceID,
			"end_to_end_ns":    tr.EndToEndNS,
			"critical_path_ns": tr.CriticalPathNS,
		},
	}
	// Deterministic pid per node name.
	var names []string
	seen := map[string]bool{}
	for i := range tr.Spans {
		if n := tr.Spans[i].Node; !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	sort.Strings(names)
	pidOf := make(map[string]int, len(names))
	for i, n := range names {
		pid := i + 1
		pidOf[n] = pid
		out.TraceEvents = append(out.TraceEvents, trackMetadata(pid, n)...)
	}
	for i := range tr.Spans {
		s := &tr.Spans[i]
		tid := tidCaller
		if s.Kind == KindCallee {
			tid = tidCallee
		}
		args := map[string]any{
			"parent": s.Parent, "hop": s.Hop,
			"site": s.Site, "method": s.Method, "seq": s.Seq,
		}
		if s.Err != "" {
			args["err"] = s.Err
		}
		if s.Critical {
			args["critical"] = true
		}
		if s.Orphan {
			args["orphan"] = true
		}
		cat := s.Kind.String()
		if s.Critical {
			cat = "critical"
		}
		dur := float64(s.End-s.Start) / 1e3
		if dur <= 0 {
			dur = 0.001
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: s.Site, Ph: "X", Cat: cat,
			TS: us(s.AlignedStart()), Dur: dur, PID: pidOf[s.Node], TID: tid, Args: args,
		})
	}
	return json.NewEncoder(w).Encode(out)
}

// chromeKey is what the differential compares of one event: the
// process ids are left out (the writers number them differently).
type chromeKey struct {
	Name, Cat string
	TID       int
	TS, Dur   float64
}

// chromeEvents decodes a dump and returns the sorted keys of its
// complete events that keep accepts.
func chromeEvents(t *testing.T, dump []byte, keep func(chromeEvent) bool) []chromeKey {
	t.Helper()
	var doc chromeTrace
	if err := json.Unmarshal(dump, &doc); err != nil {
		t.Fatalf("dump does not parse: %v", err)
	}
	var out []chromeKey
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && keep(e) {
			out = append(out, chromeKey{e.Name, e.Cat, e.TID, e.TS, e.Dur})
		}
	}
	sort.Slice(out, func(i, j int) bool { return fmt.Sprint(out[i]) < fmt.Sprint(out[j]) })
	return out
}

// flightRecords generates a flight recorder's worth of span halves on
// four nodes: every own-clock phase inside its span, callee transit
// legs starting before the span (on the caller's clock), some
// failures, retries and virtual transits.
func flightRecords(seed int64, n int) []SpanRecord {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]SpanRecord, n)
	for i := range recs {
		r := &recs[i]
		r.Site, r.Method = fmt.Sprintf("S.m.%d", i%3), "m"
		r.From, r.To, r.Seq = rng.Intn(4), rng.Intn(4), int64(i)
		r.Kind = Kind(rng.Intn(2))
		r.Start = 1_000_000 + rng.Int63n(1_000_000)
		r.End = r.Start + 1 + rng.Int63n(50_000)
		if rng.Intn(5) == 0 {
			r.Err, r.Retries = "rmi: call timed out", rng.Intn(3)
		}
		if r.Kind == KindCallee {
			r.VirtualTransitNS = rng.Int63n(9000)
			r.PhaseStart[PhaseTransit], r.PhaseDur[PhaseTransit] = r.Start-5000, 5000
		}
		for p := Phase(0); p < NumPhases; p++ {
			if !ownClock(r.Kind, p) || rng.Intn(2) == 0 {
				continue
			}
			d := rng.Int63n(r.End - r.Start + 1)
			r.PhaseStart[p] = r.Start + rng.Int63n(r.End-r.Start-d+1)
			r.PhaseDur[p] = d
		}
	}
	return recs
}

// TestWriteChromeMatchesReference renders the same spans through
// WriteChrome and the writers it replaced. Flight-recorder dumps must
// agree on every span and own-clock phase event; merged trees, which
// the old writer drew without phases, on every span event. Transit
// legs are args now, not events, so the reference's are left out.
func TestWriteChromeMatchesReference(t *testing.T) {
	notTransit := func(e chromeEvent) bool {
		return e.Name != PhaseTransit.String() && e.Name != PhaseReplyTransit.String()
	}
	notPhase := func(e chromeEvent) bool { return e.Cat != "phase" }
	for seed := int64(1); seed <= 5; seed++ {
		recs := flightRecords(seed, 60)
		var got, want bytes.Buffer
		if err := WriteChrome(&got, Local(recs), nil); err != nil {
			t.Fatal(err)
		}
		if err := refWriteChrome(&want, recs, ""); err != nil {
			t.Fatal(err)
		}
		g, w := chromeEvents(t, got.Bytes(), notTransit), chromeEvents(t, want.Bytes(), notTransit)
		if !reflect.DeepEqual(g, w) {
			t.Errorf("seed %d: flight dump differs from the reference:\n got %v\nwant %v", seed, g, w)
		}
	}

	for _, tree := range referenceTrees() {
		var got, want bytes.Buffer
		if err := WriteChrome(&got, tree.Spans, nil); err != nil {
			t.Fatal(err)
		}
		if err := refWriteChromeMerged(&want, tree); err != nil {
			t.Fatal(err)
		}
		g, w := chromeEvents(t, got.Bytes(), notPhase), chromeEvents(t, want.Bytes(), notPhase)
		if len(g) != len(tree.Spans) || !reflect.DeepEqual(g, w) {
			t.Errorf("trace %d: merged dump differs from the reference:\n got %v\nwant %v", tree.TraceID, g, w)
		}
	}
}

// referenceTrees are the reconstruction tests' trees: aligned across a
// 1 ms clock offset, with an orphan subtree, with duplicates, and
// ending in an abandoned call.
func referenceTrees() []*Tree {
	aligned := skewedPair(7, 1_000_000)
	root := mkSpan(9, CallID{}, 0, KindCaller, 0, 1, 1, 100, 500)
	orphan := mkSpan(9, CallID{}, 1, KindCallee, 0, 1, 2, 200, 400)
	grand := mkSpan(9, CallID{From: 0, Seq: 2}, 1, KindCaller, 1, 2, 3, 250, 350)
	dupRoot := mkSpan(11, CallID{}, 0, KindCaller, 0, 1, 1, 100, 500)
	dupCallee := mkSpan(11, CallID{}, 1, KindCallee, 0, 1, 1, 200, 300)
	reexec := mkSpan(11, CallID{}, 1, KindCallee, 0, 1, 1, 350, 450)
	abandoned := mkSpan(13, CallID{}, 0, KindCaller, 0, 1, 1, 100, 300)
	abandoned.Err = "call timed out"
	late := mkSpan(13, CallID{}, 1, KindCallee, 0, 1, 1, 400, 900)
	late.PhaseDur[PhaseTransit] = 150
	return []*Tree{
		BuildTree(7, []NodeSpans{{Node: "a", Spans: aligned[:1]}, {Node: "b", Spans: aligned[1:]}}),
		BuildTree(9, []NodeSpans{{Node: "a", Spans: []SpanRecord{root, orphan, grand}}}),
		BuildTree(11, []NodeSpans{
			{Node: "a", Spans: []SpanRecord{dupRoot}},
			{Node: "b", Spans: []SpanRecord{dupCallee, reexec}},
			{Node: "b2", Spans: []SpanRecord{dupCallee}},
		}),
		BuildTree(13, []NodeSpans{{Node: "a", Spans: []SpanRecord{abandoned}}, {Node: "b", Spans: []SpanRecord{late}}}),
	}
}
