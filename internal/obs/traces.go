package obs

// Distributed-trace endpoints (DESIGN.md §15).
//
// Every node retains the spans of head-sampled traces in its tracer's
// bounded per-trace store. /traces lists what this node holds;
// /traces/<id> serves one trace's local spans — and, with ?peers=a,b,c
// (or the configured Options.Peers), pulls the same trace from every
// peer, aligns the hop clocks from the transit stamp pairs, and serves
// the reconstructed cross-node call tree with its end-to-end critical
// path. ?format=chrome renders the merged tree as one Perfetto dump
// with a track group per node. Same pull model as /snapshot → /cluster:
// any node can aggregate, there is no coordinator.

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"cormi/internal/trace"
)

// TracesVersion is the /traces and /traces/<id> document version. A
// collector must reject documents with a different version rather than
// merge spans whose field semantics may have changed. Version 3: a
// span is named by its call, (kind, from, seq); a nested caller span
// names its parent call, and spans carry no span or parent span ID.
const TracesVersion = 3

// TraceList is the /traces document: the traces this node retains.
type TraceList struct {
	Version int                  `json:"version"`
	Node    string               `json:"node"`
	Traces  []trace.TraceSummary `json:"traces"`
}

// TraceDoc is the single-node /traces/<id> document: one trace's spans
// as retained by one node, timestamps on that node's clock.
type TraceDoc struct {
	Version int                `json:"version"`
	Node    string             `json:"node"`
	TraceID uint64             `json:"trace_id"`
	Spans   []trace.SpanRecord `json:"spans"`
}

// TraceView is the merged /traces/<id>?peers=... document: the
// reconstructed cross-node tree plus the per-node contributions and
// any peers that could not be reached (reported, not fatal — their
// spans simply become orphan subtrees or missing leaves).
type TraceView struct {
	Version int         `json:"version"`
	Nodes   []string    `json:"nodes"`
	Errors  []string    `json:"errors,omitempty"`
	Tree    *trace.Tree `json:"tree"`
}

func nodeName(opts Options) string {
	if opts.NodeName != "" {
		return opts.NodeName
	}
	return "local"
}

// serveTrace is the /traces/<id> body: one trace's local spans, or the
// cross-node tree merged from the peers.
func serveTrace(opts Options, r *http.Request) (any, int) {
	idStr := strings.TrimPrefix(r.URL.Path, "/traces/")
	id, err := parseTraceID(idStr)
	if err != nil {
		return fmt.Sprintf("bad trace id %q: %v", idStr, err), http.StatusBadRequest
	}
	q := r.URL.Query()
	peers := opts.Peers
	if qp := q.Get("peers"); qp != "" {
		peers = splitPeers(qp)
	}
	if q.Get("local") == "1" || (len(peers) == 0 && q.Get("merge") != "1") {
		// Single-node document: this node's retained spans, verbatim.
		// This is also what the aggregating node pulls from peers.
		return TraceDoc{Version: TracesVersion, Node: nodeName(opts), TraceID: id, Spans: orEmpty(opts.Tracer.TraceSpans(id))}, http.StatusOK
	}
	view := buildTraceView(opts, id, peers)
	if q.Get("format") == "chrome" {
		return chromeDump{view.Tree.Spans, map[string]any{
			"trace_id":         view.Tree.TraceID,
			"end_to_end_ns":    view.Tree.EndToEndNS,
			"critical_path_ns": view.Tree.CriticalPathNS,
		}}, http.StatusOK
	}
	return view, http.StatusOK
}

// parseTraceID accepts a decimal or 0x-prefixed hex trace ID.
func parseTraceID(s string) (uint64, error) {
	if rest, ok := strings.CutPrefix(s, "0x"); ok {
		return strconv.ParseUint(rest, 16, 64)
	}
	return strconv.ParseUint(s, 10, 64)
}

func (d *TraceList) version() (int, int) { return d.Version, TracesVersion }
func (d *TraceDoc) version() (int, int)  { return d.Version, TracesVersion }
func (d *TraceView) version() (int, int) { return d.Version, TracesVersion }

// buildTraceView assembles the cross-node tree: the local contribution
// plus every reachable peer's single-node document (same fan-out and
// ordering as /cluster).
func buildTraceView(opts Options, id uint64, peers []string) TraceView {
	local := nodeName(opts)
	docs, names, errs := pullPeers(peers, "/traces/"+strconv.FormatUint(id, 10)+"?local=1",
		func(d *TraceDoc) string { return d.Node })
	contrib := []trace.NodeSpans{{Node: local, Spans: opts.Tracer.TraceSpans(id)}}
	for i, d := range docs {
		contrib = append(contrib, trace.NodeSpans{Node: names[i], Spans: d.Spans})
	}
	return TraceView{
		Version: TracesVersion,
		Nodes:   append([]string{local}, names...),
		Errors:  errs,
		Tree:    trace.BuildTree(id, contrib),
	}
}
