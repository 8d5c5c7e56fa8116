package trace

import (
	"encoding/json"
	"io"
	"sort"
)

// Cross-node trace reconstruction: the spans of one trace ID, fetched
// from every node's /traces/<id> endpoint, are assembled into a call
// tree, the nodes' wall clocks are aligned from the request/reply
// transit stamp pairs the spans already carry, and the end-to-end
// critical path is computed through the aligned tree. See DESIGN.md
// §15 for the math and the crediting rules.

// NodeSpans is one node's contribution to a trace: the spans its
// tracer retained, tagged with the node's observability name.
type NodeSpans struct {
	Node  string       `json:"node"`
	Spans []SpanRecord `json:"spans"`
}

// TreeSpan is one span of a reconstructed cross-node tree, with its
// wall times rebased onto the root node's clock.
type TreeSpan struct {
	SpanID   uint64 `json:"span_id"`
	ParentID uint64 `json:"parent_id,omitempty"`
	Node     string `json:"node"`
	Site     string `json:"site"`
	Method   string `json:"method"`
	Kind     string `json:"kind"`
	From     int    `json:"from"`
	To       int    `json:"to"`
	Seq      int64  `json:"seq"`
	Hop      uint8  `json:"hop"`
	StartNS  int64  `json:"start_ns"` // aligned to the root node's clock
	DurNS    int64  `json:"dur_ns"`
	// OffsetNS is the clock correction subtracted from this span's raw
	// timestamps (the recording node's estimated skew vs the root).
	OffsetNS int64  `json:"offset_ns,omitempty"`
	Err      string `json:"err,omitempty"`
	Retries  int    `json:"retries,omitempty"`
	// Orphan marks a span whose parent is missing (unsampled parent,
	// unreachable node, or an evicted bucket); it is grafted in as an
	// extra root so its subtree still renders.
	Orphan bool `json:"orphan,omitempty"`
	// Critical marks membership in the end-to-end critical path.
	Critical bool `json:"critical,omitempty"`
	// Children indexes this span's children in Tree.Spans.
	Children []int `json:"children,omitempty"`
}

// Tree is one reconstructed cross-node trace.
type Tree struct {
	TraceID uint64 `json:"trace_id"`
	// Spans is sorted by aligned start time then span ID; Roots indexes
	// the parentless spans (one entry = a fully connected trace).
	Spans []TreeSpan `json:"spans"`
	Roots []int      `json:"roots"`
	// Orphans counts spans whose parent could not be found; Duplicates
	// counts spans discarded as redeliveries (same span ID, or the same
	// call half re-executed after a retry).
	Orphans    int `json:"orphans"`
	Duplicates int `json:"duplicates"`
	MaxHop     int `json:"max_hop"`
	// EndToEndNS is the aligned wall time from the primary root's start
	// to the latest span end in the tree.
	EndToEndNS int64 `json:"end_to_end_ns"`
	// CriticalPathNS sums the credited segments along CriticalPath:
	// walking from the latest-ending span back to its root, each span
	// is credited only the interval not covered by its on-path child —
	// so a parent blocked on an overlapped (pipelined/async) child is
	// not double-charged for the child's time.
	CriticalPathNS int64    `json:"critical_path_ns"`
	CriticalPath   []uint64 `json:"critical_path,omitempty"` // root → leaf
}

// spanKey identifies one call half for retry deduplication: sequence
// numbers are unique per invoking node, so a second span with the same
// key is a re-execution (dedup-cache eviction under retries), not a
// distinct call.
type spanKey struct {
	kind Kind
	from int
	seq  int64
}

// BuildTree assembles the spans of traceID from every node's
// contribution into an aligned call tree. It tolerates every partial
// view the satellites name: missing parents become orphan roots,
// duplicate spans are discarded, nodes without stamp pairs fall back
// to zero offset.
func BuildTree(traceID uint64, nodes []NodeSpans) *Tree {
	var raw []alignSpan
	tr := &Tree{TraceID: traceID}
	seenID := make(map[uint64]bool)
	seenKey := make(map[spanKey]bool)
	for _, ns := range nodes {
		for i := range ns.Spans {
			s := &ns.Spans[i]
			if s.TraceID != traceID || s.SpanID == 0 {
				continue
			}
			if seenID[s.SpanID] {
				tr.Duplicates++
				continue
			}
			k := spanKey{kind: s.Kind, from: s.From, seq: s.Seq}
			if seenKey[k] {
				tr.Duplicates++
				continue
			}
			seenID[s.SpanID] = true
			seenKey[k] = true
			raw = append(raw, alignSpan{rec: s, node: ns.Node})
		}
	}
	if len(raw) == 0 {
		return tr
	}

	// Pick the primary root: the hop-0 caller span (earliest if several
	// — multiple root calls can share a trace), else the earliest span.
	rootIdx := 0
	better := func(a, b alignSpan) bool {
		aRoot := a.rec.Hop == 0 && a.rec.Kind == KindCaller
		bRoot := b.rec.Hop == 0 && b.rec.Kind == KindCaller
		if aRoot != bRoot {
			return aRoot
		}
		return a.rec.Start < b.rec.Start
	}
	for i := range raw {
		if better(raw[i], raw[rootIdx]) {
			rootIdx = i
		}
	}

	offsets := alignClocks(raw[rootIdx].node, raw)

	// Materialize aligned tree spans.
	byID := make(map[uint64]int, len(raw))
	tr.Spans = make([]TreeSpan, 0, len(raw))
	for i := range raw {
		s := raw[i].rec
		off := offsets[raw[i].node]
		tr.Spans = append(tr.Spans, TreeSpan{
			SpanID: s.SpanID, ParentID: s.ParentID, Node: raw[i].node,
			Site: s.Site, Method: s.Method, Kind: s.Kind.String(),
			From: s.From, To: s.To, Seq: s.Seq, Hop: s.Hop,
			StartNS: s.Start - off, DurNS: s.End - s.Start, OffsetNS: off,
			Err: s.Err, Retries: s.Retries,
		})
	}
	sort.Slice(tr.Spans, func(i, j int) bool {
		if tr.Spans[i].StartNS != tr.Spans[j].StartNS {
			return tr.Spans[i].StartNS < tr.Spans[j].StartNS
		}
		return tr.Spans[i].SpanID < tr.Spans[j].SpanID
	})
	for i := range tr.Spans {
		byID[tr.Spans[i].SpanID] = i
	}
	for i := range tr.Spans {
		s := &tr.Spans[i]
		if int(s.Hop) > tr.MaxHop {
			tr.MaxHop = int(s.Hop)
		}
		if s.ParentID == 0 {
			tr.Roots = append(tr.Roots, i)
			continue
		}
		if pi, ok := byID[s.ParentID]; ok {
			tr.Spans[pi].Children = append(tr.Spans[pi].Children, i)
		} else {
			s.Orphan = true
			tr.Orphans++
			tr.Roots = append(tr.Roots, i)
		}
	}

	// End-to-end window and critical path. The primary root is the
	// first non-orphan root (the sort put the earliest start first);
	// fall back to the first root.
	if len(tr.Roots) == 0 {
		// Degenerate: every span claims a present parent, which a cycle
		// of forged parent IDs could produce. No tree to walk.
		return tr
	}
	primary := tr.Roots[0]
	for _, r := range tr.Roots {
		if !tr.Spans[r].Orphan {
			primary = r
			break
		}
	}
	rootStart := tr.Spans[primary].StartNS
	leaf, latest := primary, int64(0)
	for i := range tr.Spans {
		if end := tr.Spans[i].StartNS + tr.Spans[i].DurNS; end > latest {
			latest, leaf = end, i
		}
	}
	tr.EndToEndNS = latest - rootStart
	if tr.EndToEndNS < 0 {
		tr.EndToEndNS = 0
	}

	// Walk from the latest-ending span to its root, crediting each span
	// the interval its on-path child does not cover: the leaf gets its
	// full duration, each ancestor only the stretch before the child
	// started. Overlapped (pipelined) waits are thus charged once, to
	// the span doing the work.
	var path []int
	for i, hops := leaf, 0; hops <= len(tr.Spans); hops++ {
		path = append(path, i)
		p := tr.Spans[i].ParentID
		if p == 0 {
			break
		}
		pi, ok := byID[p]
		if !ok || pi == i {
			break
		}
		i = pi
	}
	bound := latest
	for _, i := range path {
		s := &tr.Spans[i]
		s.Critical = true
		if seg := bound - s.StartNS; seg > 0 {
			tr.CriticalPathNS += seg
		}
		if s.StartNS < bound {
			bound = s.StartNS
		}
	}
	for i := len(path) - 1; i >= 0; i-- {
		tr.CriticalPath = append(tr.CriticalPath, tr.Spans[path[i]].SpanID)
	}
	return tr
}

// alignSpan pairs a deduplicated span record with the name of the node
// whose store contributed it.
type alignSpan struct {
	rec  *SpanRecord
	node string
}

// alignClocks estimates each recording node's clock offset relative to
// the root node from the wall-clock transit stamps the span pairs
// already carry — the NTP two-sample rule solved per link:
//
//	callee.PhaseTransit:      t1 = start (caller clock, the packet's
//	                          send stamp), t2 = t1+dur (callee clock,
//	                          the receive stamp)
//	caller.PhaseReplyTransit: t3 = start (callee clock, the reply's
//	                          send stamp), t4 = t3+dur (caller clock)
//
//	offset(callee rel caller) = ((t2-t1) + (t3-t4)) / 2
//
// which cancels the (assumed symmetric) transit time. Samples are
// averaged per directed node pair, then composed along a BFS from the
// root node, so a node two hops away is aligned through its
// intermediary. A call that timed out or was abandoned has no reply
// leg; its one-sided sample (t2-t1, biased by the transit time) is used
// only when a link has no two-sided sample. Unreachable nodes keep offset zero.
func alignClocks(rootNode string, spans []alignSpan) map[string]int64 {
	byID := make(map[uint64]alignSpan, len(spans))
	for _, s := range spans {
		byID[s.rec.SpanID] = s
	}
	type pair struct{ a, b string } // offset of b relative to a
	sums := make(map[pair]int64)
	counts := make(map[pair]int64)
	weakSums := make(map[pair]int64)
	weakCounts := make(map[pair]int64)
	for _, s := range spans {
		if s.rec.Kind != KindCallee || s.rec.PhaseDur[PhaseTransit] == 0 {
			continue
		}
		caller, ok := byID[s.rec.ParentID]
		if !ok {
			continue
		}
		if caller.node == s.node {
			continue
		}
		p := pair{a: caller.node, b: s.node}
		d1 := s.rec.PhaseDur[PhaseTransit] // t2 - t1
		if d2 := caller.rec.PhaseDur[PhaseReplyTransit]; d2 != 0 {
			// Two-sided sample: (t2-t1) - (t4-t3) over 2.
			sums[p] += (d1 - d2) / 2
			counts[p]++
		} else {
			// No reply leg recorded (the call timed out or was
			// abandoned before its reply landed): t2-t1 alone, biased
			// by the transit time. Kept only if no two-sided sample
			// materializes for this link.
			weakSums[p] += d1
			weakCounts[p]++
		}
	}
	for p, n := range weakCounts {
		if counts[p] == 0 {
			sums[p] = weakSums[p] / n
			counts[p] = 1
		} else {
			delete(weakSums, p)
		}
	}

	// Average per directed pair, then BFS the (undirected) link graph
	// from the root, composing offsets along tree edges.
	type edge struct {
		to  string
		off int64
	}
	adj := make(map[string][]edge)
	for p, sum := range sums {
		off := sum / counts[p]
		adj[p.a] = append(adj[p.a], edge{to: p.b, off: off})
		adj[p.b] = append(adj[p.b], edge{to: p.a, off: -off})
	}
	for n := range adj {
		es := adj[n]
		sort.Slice(es, func(i, j int) bool { return es[i].to < es[j].to })
	}
	offsets := map[string]int64{rootNode: 0}
	queue := []string{rootNode}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range adj[cur] {
			if _, ok := offsets[e.to]; ok {
				continue
			}
			offsets[e.to] = offsets[cur] + e.off
			queue = append(queue, e.to)
		}
	}
	return offsets
}

// WriteChromeMerged renders a reconstructed cross-node tree as one
// Perfetto-loadable dump with one process (track group) per node, all
// timestamps already aligned to the root node's clock.
func WriteChromeMerged(w io.Writer, tr *Tree) error {
	var epoch int64
	for i := range tr.Spans {
		if s := tr.Spans[i].StartNS; epoch == 0 || s < epoch {
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
		if s.Kind == KindCallee.String() {
			tid = tidCallee
		}
		args := map[string]any{
			"span_id": s.SpanID, "parent_id": s.ParentID, "hop": s.Hop,
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
		cat := s.Kind
		if s.Critical {
			cat = "critical"
		}
		dur := float64(s.DurNS) / 1e3
		if dur <= 0 {
			dur = 0.001
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: s.Site, Ph: "X", Cat: cat,
			TS: us(s.StartNS), Dur: dur, PID: pidOf[s.Node], TID: tid, Args: args,
		})
	}
	return json.NewEncoder(w).Encode(out)
}
