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
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"cormi/internal/trace"
)

// TracesVersion is the /traces and /traces/<id> document version. A
// collector must reject documents with a different version rather than
// merge spans whose field semantics may have changed.
const TracesVersion = 1

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
		return chromeJSON(func(w io.Writer) error { return trace.WriteChromeMerged(w, view.Tree) }), http.StatusOK
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

// peerTraceURL returns a peer's single-node document URL for one trace.
func peerTraceURL(peer string, id uint64) string {
	if !strings.Contains(peer, "://") {
		peer = "http://" + peer
	}
	return strings.TrimRight(peer, "/") + "/traces/" + strconv.FormatUint(id, 10) + "?local=1"
}

// fetchTraceDoc pulls one peer's spans for the trace.
func fetchTraceDoc(client *http.Client, peer string, id uint64) (TraceDoc, error) {
	var doc TraceDoc
	resp, err := client.Get(peerTraceURL(peer, id))
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return doc, fmt.Errorf("status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return doc, fmt.Errorf("decode trace doc: %w", err)
	}
	if doc.Version != TracesVersion {
		return doc, fmt.Errorf("trace doc version %d, want %d", doc.Version, TracesVersion)
	}
	return doc, nil
}

// buildTraceView assembles the cross-node tree: the local contribution
// plus every reachable peer's, fetched concurrently (bounded, same
// fan-out limit as /cluster) with deterministic node/error ordering.
func buildTraceView(opts Options, id uint64, peers []string) TraceView {
	local := nodeName(opts)
	v := TraceView{Version: TracesVersion, Nodes: []string{local}}
	contrib := []trace.NodeSpans{{Node: local, Spans: opts.Tracer.TraceSpans(id)}}

	client := &http.Client{Timeout: 2 * time.Second}
	docs := make([]TraceDoc, len(peers))
	errs := make([]error, len(peers))
	forEachPeer(peers, func(i int, p string) {
		docs[i], errs[i] = fetchTraceDoc(client, p, id)
	})
	for i, p := range peers {
		if errs[i] != nil {
			v.Errors = append(v.Errors, fmt.Sprintf("%s: %v", p, errs[i]))
			continue
		}
		name := docs[i].Node
		if name == "" || name == "local" {
			name = p
		}
		v.Nodes = append(v.Nodes, name)
		contrib = append(contrib, trace.NodeSpans{Node: name, Spans: docs[i].Spans})
	}
	v.Tree = trace.BuildTree(id, contrib)
	return v
}
