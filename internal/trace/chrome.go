package trace

import (
	"encoding/json"
	"io"
	"sort"
)

// Chrome trace-event exporter: renders placed spans as a
// Chrome/Perfetto-loadable JSON object ({"traceEvents": [...]}). Every
// dump goes through WriteChrome: the flight recorder's failure dumps,
// /trace and rmibench -trace through Local, and the
// merged cross-node tree of /traces/<id>?format=chrome as built. Open
// chrome://tracing or https://ui.perfetto.dev and load the file.

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat,omitempty"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// chrome track ids: one synthetic thread per span kind.
const (
	tidCaller = 1
	tidCallee = 2
)

// trackMetadata names one node's process and its caller and callee
// tracks.
func trackMetadata(pid int, process string) []chromeEvent {
	return []chromeEvent{
		{Name: "process_name", Ph: "M", PID: pid, TID: 0, Args: map[string]any{"name": process}},
		{Name: "thread_name", Ph: "M", PID: pid, TID: tidCaller, Args: map[string]any{"name": "caller"}},
		{Name: "thread_name", Ph: "M", PID: pid, TID: tidCallee, Args: map[string]any{"name": "callee"}},
	}
}

// ownClock reports whether a span half measures phase p on its own
// clock. The two transit legs straddle nodes: a callee's transit
// starts at the caller's send stamp, a caller's reply transit at the
// callee's.
func ownClock(k Kind, p Phase) bool {
	return !(k == KindCallee && p == PhaseTransit || k == KindCaller && p == PhaseReplyTransit)
}

// phaseStart is a phase's start stamp on its span's clock; a phase
// recorded without one is drawn at the span start.
func phaseStart(s *SpanRecord, p Phase) int64 {
	if st := s.PhaseStart[p]; st != 0 {
		return st
	}
	return s.Start
}

// WriteChrome renders placed spans as Chrome trace-event JSON with meta
// as the document's otherData. Each node label is one process, numbered
// in label order. Each span is a complete ("X") event on its node's
// caller or callee track, in category "critical" on the critical path
// and its kind otherwise. Its args are the record's identity and
// non-zero fields, its placement, and its transit leg in ns. Each phase
// measured on the span's own clock is a nested "phase" event.
// Timestamps are microseconds after the earliest start drawn, clock
// correction applied, so none is negative.
func WriteChrome(w io.Writer, spans []TreeSpan, meta map[string]any) error {
	var epoch int64
	drawn := false
	draw := func(ns int64) {
		if !drawn || ns < epoch {
			epoch, drawn = ns, true
		}
	}
	pids := map[string]int{}
	var names []string
	for i := range spans {
		s := &spans[i]
		draw(s.AlignedStart())
		for p := Phase(0); p < NumPhases; p++ {
			if s.PhaseDur[p] > 0 && ownClock(s.Kind, p) {
				draw(phaseStart(&s.SpanRecord, p) - s.OffsetNS)
			}
		}
		if _, ok := pids[s.Node]; !ok {
			pids[s.Node] = 0
			names = append(names, s.Node)
		}
	}
	us := func(ns int64) float64 { return float64(ns-epoch) / 1e3 }

	out := chromeTrace{DisplayTimeUnit: "ms", OtherData: meta}
	sort.Strings(names)
	for i, n := range names {
		pids[n] = i + 1
		out.TraceEvents = append(out.TraceEvents, trackMetadata(i+1, n)...)
	}
	for i := range spans {
		s := &spans[i]
		pid, tid := pids[s.Node], tidCaller
		if s.Kind == KindCallee {
			tid = tidCallee
		}
		cat := s.Kind.String()
		if s.Critical {
			cat = "critical"
		}
		dur := float64(s.End-s.Start) / 1e3
		if dur <= 0 {
			dur = 0.001
		}
		args := spanArgs(s)
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: s.Site, Ph: "X", Cat: cat,
			TS: us(s.AlignedStart()), Dur: dur, PID: pid, TID: tid, Args: args,
		})
		for p := Phase(0); p < NumPhases; p++ {
			d := s.PhaseDur[p]
			if d <= 0 {
				continue
			}
			if !ownClock(s.Kind, p) {
				args[p.String()+"_ns"] = d
				continue
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: p.String(), Ph: "X", Cat: "phase",
				TS: us(phaseStart(&s.SpanRecord, p) - s.OffsetNS), Dur: float64(d) / 1e3, PID: pid, TID: tid,
				Args: map[string]any{"seq": s.Seq},
			})
		}
	}
	return json.NewEncoder(w).Encode(out)
}

// spanArgs is one span event's args: the record's identity, its
// non-zero optional fields and its placement.
func spanArgs(s *TreeSpan) map[string]any {
	args := map[string]any{
		"site": s.Site, "method": s.Method, "kind": s.Kind.String(),
		"from": s.From, "to": s.To, "seq": s.Seq, "node": s.Node,
	}
	set := func(key string, v any, nonZero bool) {
		if nonZero {
			args[key] = v
		}
	}
	set("err", s.Err, s.Err != "")
	set("retries", s.Retries, s.Retries != 0)
	set("virtual_transit_ns", s.VirtualTransitNS, s.VirtualTransitNS != 0)
	set("trace_id", s.TraceID, s.TraceID != 0)
	set("span_id", s.SpanID, s.SpanID != 0)
	set("parent_id", s.ParentID, s.ParentID != 0)
	set("hop", s.Hop, s.Hop != 0)
	set("offset_ns", s.OffsetNS, s.OffsetNS != 0)
	set("orphan", true, s.Orphan)
	set("critical", true, s.Critical)
	return args
}
