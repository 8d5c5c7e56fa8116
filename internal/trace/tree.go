package trace

import (
	"fmt"
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

// TreeSpan places one span record in a reconstructed tree. The
// embedded record is exactly what its node served, on that node's
// clock; OffsetNS is the clock correction (the recording node's
// estimated skew against the root node), so the span starts at
// AlignedStart on the root node's clock.
type TreeSpan struct {
	SpanRecord
	Node     string `json:"node"`
	OffsetNS int64  `json:"offset_ns,omitempty"`
	// Orphan marks a span whose parent is missing (unsampled parent,
	// unreachable node, or an evicted bucket); it is grafted in as an
	// extra root so its subtree still renders.
	Orphan bool `json:"orphan,omitempty"`
	// Critical marks membership in the end-to-end critical path.
	Critical bool `json:"critical,omitempty"`
	// Children indexes this span's children in Tree.Spans.
	Children []int `json:"children,omitempty"`
}

// AlignedStart is the span's start on the root node's clock.
func (s *TreeSpan) AlignedStart() int64 { return s.Start - s.OffsetNS }

// Local places the spans of one process's own flight recorder for
// WriteChrome: each span on the node
// that recorded it (the caller half's From, the callee half's To),
// with no clock correction.
func Local(recs []SpanRecord) []TreeSpan {
	out := make([]TreeSpan, len(recs))
	for i, r := range recs {
		node := r.From
		if r.Kind == KindCallee {
			node = r.To
		}
		out[i] = TreeSpan{SpanRecord: r, Node: fmt.Sprintf("node %d", node)}
	}
	return out
}

// Tree is one reconstructed cross-node trace.
type Tree struct {
	TraceID uint64 `json:"trace_id"`
	// Spans is sorted by aligned start time; Roots indexes the
	// parentless spans (one entry = a fully connected trace).
	Spans []TreeSpan `json:"spans"`
	Roots []int      `json:"roots"`
	// Orphans counts spans whose parent could not be found; Duplicates
	// counts spans discarded as redeliveries (the same call half fetched
	// twice, or re-executed after a retry).
	Orphans    int `json:"orphans"`
	Duplicates int `json:"duplicates"`
	MaxHop     int `json:"max_hop"`
	// EndToEndNS is the aligned wall time from the primary root's start
	// to the latest span end in the tree.
	EndToEndNS int64 `json:"end_to_end_ns"`
	// CriticalPathNS sums the credited segments along the critical path
	// (the spans marked Critical): walking from the latest-ending span
	// back to its root, each span is credited only the interval not
	// covered by its on-path child — so a parent blocked on a child is
	// not double-charged for the child's time.
	CriticalPathNS int64 `json:"critical_path_ns"`
}

// spanKey names one span: a call half. Sequence numbers are unique per
// invoking node, so a second span with the same key is a redelivery
// (the same record fetched twice, or the call re-executed after a
// dedup-cache eviction under retries), not a distinct call.
type spanKey struct {
	kind Kind
	call CallID
}

func (s *SpanRecord) key() spanKey {
	return spanKey{kind: s.Kind, call: CallID{From: s.From, Seq: s.Seq}}
}

// parentKey names the span s hangs under, and reports false for a
// root: a callee span hangs under its own call's caller half, a nested
// caller span under the callee half of the call whose method issued it.
func (s *SpanRecord) parentKey() (spanKey, bool) {
	if s.Kind == KindCallee {
		return spanKey{kind: KindCaller, call: CallID{From: s.From, Seq: s.Seq}}, true
	}
	return spanKey{kind: KindCallee, call: s.Parent}, s.Parent != CallID{}
}

// BuildTree assembles the spans of traceID from every node's
// contribution into an aligned call tree. It tolerates every partial
// view the satellites name: missing parents become orphan roots,
// duplicate spans are discarded, nodes without stamp pairs fall back
// to zero offset.
func BuildTree(traceID uint64, nodes []NodeSpans) *Tree {
	tr := &Tree{TraceID: traceID}
	// byKey indexes tr.Spans by span, which also finds the duplicates.
	byKey := make(map[spanKey]int)
	for _, ns := range nodes {
		for i := range ns.Spans {
			s := &ns.Spans[i]
			if s.TraceID != traceID {
				continue
			}
			if _, dup := byKey[s.key()]; dup {
				tr.Duplicates++
				continue
			}
			byKey[s.key()] = len(tr.Spans)
			tr.Spans = append(tr.Spans, TreeSpan{SpanRecord: *s, Node: ns.Node})
		}
	}
	if len(tr.Spans) == 0 {
		return tr
	}

	// Pick the primary root: the hop-0 caller span (earliest if several
	// — multiple root calls can share a trace), else the earliest span.
	rootIdx := 0
	better := func(a, b *TreeSpan) bool {
		aRoot := a.Hop == 0 && a.Kind == KindCaller
		bRoot := b.Hop == 0 && b.Kind == KindCaller
		if aRoot != bRoot {
			return aRoot
		}
		return a.Start < b.Start
	}
	for i := range tr.Spans {
		if better(&tr.Spans[i], &tr.Spans[rootIdx]) {
			rootIdx = i
		}
	}

	// Place the spans on the root node's clock.
	offsets := alignClocks(tr.Spans[rootIdx].Node, tr.Spans, byKey)
	for i := range tr.Spans {
		tr.Spans[i].OffsetNS = offsets[tr.Spans[i].Node]
	}
	sort.SliceStable(tr.Spans, func(i, j int) bool {
		return tr.Spans[i].AlignedStart() < tr.Spans[j].AlignedStart()
	})
	for i := range tr.Spans {
		byKey[tr.Spans[i].key()] = i
	}
	for i := range tr.Spans {
		s := &tr.Spans[i]
		if int(s.Hop) > tr.MaxHop {
			tr.MaxHop = int(s.Hop)
		}
		pk, ok := s.parentKey()
		if !ok {
			tr.Roots = append(tr.Roots, i)
			continue
		}
		if pi, ok := byKey[pk]; ok {
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
		// of forged parent calls could produce. No tree to walk.
		return tr
	}
	primary := tr.Roots[0]
	for _, r := range tr.Roots {
		if !tr.Spans[r].Orphan {
			primary = r
			break
		}
	}
	rootStart := tr.Spans[primary].AlignedStart()
	leaf, latest := primary, int64(0)
	for i := range tr.Spans {
		if end := tr.Spans[i].End - tr.Spans[i].OffsetNS; end > latest {
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
	// started. A wait is thus charged once, to the span doing the
	// work.
	bound := latest
	for i, hops := leaf, 0; hops <= len(tr.Spans); hops++ {
		s := &tr.Spans[i]
		s.Critical = true
		start := s.AlignedStart()
		if seg := bound - start; seg > 0 {
			tr.CriticalPathNS += seg
		}
		if start < bound {
			bound = start
		}
		pk, ok := s.parentKey()
		if !ok {
			break
		}
		pi, ok := byKey[pk]
		if !ok {
			break
		}
		i = pi
	}
	return tr
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
// byKey indexes spans by span key.
func alignClocks(rootNode string, spans []TreeSpan, byKey map[spanKey]int) map[string]int64 {
	type pair struct{ a, b string } // offset of b relative to a
	sums := make(map[pair]int64)
	counts := make(map[pair]int64)
	weakSums := make(map[pair]int64)
	weakCounts := make(map[pair]int64)
	for i := range spans {
		s := &spans[i]
		if s.Kind != KindCallee || s.PhaseDur[PhaseTransit] == 0 {
			continue
		}
		pk, _ := s.parentKey()
		ci, ok := byKey[pk]
		if !ok {
			continue
		}
		caller := &spans[ci]
		if caller.Node == s.Node {
			continue
		}
		p := pair{a: caller.Node, b: s.Node}
		d1 := s.PhaseDur[PhaseTransit] // t2 - t1
		if d2 := caller.PhaseDur[PhaseReplyTransit]; d2 != 0 {
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
