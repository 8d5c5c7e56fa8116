package trace

import "sync"

// traceStore is the bounded per-trace span retention behind the
// /traces endpoints: closed spans carrying a trace ID are appended to
// their trace's bucket. Both dimensions are capped — MaxTraces traces
// (FIFO eviction, evicted buckets recycled through a free list so the
// steady state reuses span storage instead of reallocating it) and
// maxSpansPerTrace spans per trace (overflow counted, not stored).
type traceStore struct {
	mu      sync.Mutex
	traces  map[uint64]*traceBucket
	order   []uint64       // insertion order, oldest first
	free    []*traceBucket // recycled buckets of evicted traces
	evicted int64
	dropped int64 // spans rejected by the per-trace cap
}

// MaxTraces is how many traces a tracer's store retains; the oldest is
// evicted to admit one more.
const MaxTraces = 256

const maxSpansPerTrace = 512

type traceBucket struct {
	spans []SpanRecord
	drops int
}

func newTraceStore() *traceStore {
	return &traceStore{traces: make(map[uint64]*traceBucket, MaxTraces)}
}

func (ts *traceStore) insert(rec *SpanRecord) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	b := ts.traces[rec.TraceID]
	if b == nil {
		if len(ts.order) >= MaxTraces {
			// Evict the oldest trace; its bucket (and span storage)
			// comes right back for the new one.
			old := ts.order[0]
			ts.order = ts.order[1:]
			if ob := ts.traces[old]; ob != nil {
				ob.spans = ob.spans[:0]
				ob.drops = 0
				ts.free = append(ts.free, ob)
			}
			delete(ts.traces, old)
			ts.evicted++
		}
		if n := len(ts.free); n > 0 {
			b = ts.free[n-1]
			ts.free = ts.free[:n-1]
		} else {
			b = &traceBucket{}
		}
		ts.traces[rec.TraceID] = b
		ts.order = append(ts.order, rec.TraceID)
	}
	if len(b.spans) >= maxSpansPerTrace {
		b.drops++
		ts.dropped++
		return
	}
	b.spans = append(b.spans, *rec)
}

// TraceSummary is one retained trace as listed by /traces.
type TraceSummary struct {
	TraceID uint64 `json:"trace_id"`
	Spans   int    `json:"spans"`
	// Dropped counts spans lost to the per-trace cap.
	Dropped int `json:"dropped_spans,omitempty"`
	// StartNS/EndNS bound the retained spans' wall time (this node's
	// clock, unaligned).
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// Root is the site of the trace's hop-0 caller span when this node
	// retains it (empty on non-root nodes).
	Root string `json:"root,omitempty"`
}

// Traces summarizes every retained trace, most recent first. Nil-safe.
func (t *Tracer) Traces() []TraceSummary {
	if t == nil {
		return nil
	}
	ts := t.store
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]TraceSummary, 0, len(ts.order))
	for i := len(ts.order) - 1; i >= 0; i-- {
		id := ts.order[i]
		b := ts.traces[id]
		if b == nil {
			continue
		}
		sum := TraceSummary{TraceID: id, Spans: len(b.spans), Dropped: b.drops}
		for j := range b.spans {
			s := &b.spans[j]
			if sum.StartNS == 0 || s.Start < sum.StartNS {
				sum.StartNS = s.Start
			}
			if s.End > sum.EndNS {
				sum.EndNS = s.End
			}
			if s.Hop == 0 && s.Kind == KindCaller && sum.Root == "" {
				sum.Root = s.Site
			}
		}
		out = append(out, sum)
	}
	return out
}

// TraceSpans returns a private copy of one trace's retained spans in
// close order. Nil when the trace is unknown (or the tracer is nil).
func (t *Tracer) TraceSpans(id uint64) []SpanRecord {
	if t == nil {
		return nil
	}
	ts := t.store
	ts.mu.Lock()
	defer ts.mu.Unlock()
	b := ts.traces[id]
	if b == nil {
		return nil
	}
	return append([]SpanRecord(nil), b.spans...)
}

// TraceStoreStats reports the store's lifetime counters for the obs
// gauges: retained traces, evicted traces, and spans dropped by the
// per-trace cap.
func (t *Tracer) TraceStoreStats() (retained int, evicted, dropped int64) {
	if t == nil {
		return 0, 0, 0
	}
	ts := t.store
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.order), ts.evicted, ts.dropped
}
