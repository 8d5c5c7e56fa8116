package trace

import (
	"encoding/json"
	"io"
)

// Chrome trace-event exporter: renders flight-recorder span records as
// a Chrome/Perfetto-loadable JSON object ({"traceEvents": [...]}).
// Each node becomes a process; each span half becomes a complete ("X")
// event on the node's caller or callee track, with one sub-event per
// recorded phase. Open chrome://tracing or https://ui.perfetto.dev and
// load the file.

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

// WriteChrome renders spans as Chrome trace-event JSON. The optional
// reason tags the dump (flight-recorder failure dumps set it).
// Timestamps are rebased to the earliest span so the timeline starts
// near zero.
func WriteChrome(w io.Writer, spans []SpanRecord, reason string) error {
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
