// Package obs is the RMI runtime's live introspection surface: one
// HTTP mux serving metrics, per-site counters, Chrome-trace dumps,
// attribution snapshots and distributed traces. README's endpoint
// table lists every path with its document, version and consumer.
//
// The server is strictly a reader: it snapshots counters, histograms
// and the span ring on each request and never touches the RMI hot
// path. It runs on its own mux so mounting it cannot collide with an
// application's default mux.
package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"cormi/internal/metrics"
	"cormi/internal/serial"
	"cormi/internal/stats"
	"cormi/internal/trace"
	"cormi/internal/wire"
)

// Options selects what the server exposes. Any field may be nil; the
// corresponding metrics are simply absent.
type Options struct {
	// Tracer supplies /trace, /traces and the per-phase latency
	// histograms on /metrics and /snapshot.
	Tracer *trace.Tracer
	// Counters supplies the cormi_* counter gauges on /metrics.
	Counters *stats.Counters
	// SiteStats supplies the per-call-site counters for /callsites and
	// the labeled cormi_site_* series on /metrics (typically
	// Cluster.SiteStats, or an aggregation across clusters).
	SiteStats func() []stats.SiteStat
	// Links supplies the per-link negotiation state for /links and the
	// labeled cormi_link_* series on /metrics (typically
	// Cluster.LinkStats, or an aggregation across clusters). Only links
	// that have completed their HELLO exchange appear.
	Links func() []stats.LinkStat
	// NodeName identifies this node in /snapshot and /cluster documents
	// ("local" when empty).
	NodeName string
	// Peers lists the other nodes' obs addresses ("host:port" or full
	// URL) that /cluster pulls /snapshot from by default; a request's
	// ?peers=a,b,c query overrides the list. Must not include this
	// node's own address (the local state is always merged in).
	Peers []string
	// Overload supplies the backlog levels exposed as gauges
	// (cormi_pending_calls; typically Cluster.Overload, or an
	// aggregation across clusters).
	Overload func() stats.OverloadStats
}

// Server is a running introspection endpoint.
type Server struct {
	reg *metrics.Registry
	mux *http.ServeMux

	ln  net.Listener
	srv *http.Server
}

// newServer builds the endpoints' mux; Serve binds it to a socket.
func newServer(opts Options) *Server {
	// Gauges join the tracer's registry, so /metrics is one exposition
	// of phase histograms and gauges; a node without a tracer gets a
	// private one.
	var reg *metrics.Registry
	if opts.Tracer != nil {
		reg = opts.Tracer.Registry()
	} else {
		reg = metrics.NewRegistry()
	}
	s := &Server{reg: reg, mux: http.NewServeMux()}

	if opts.Counters != nil {
		registerCounterGauges(reg, opts.Counters)
		registerRobustnessGauges(reg, opts.Counters)
	}
	registerPoolGauges(reg)
	registerCtxGauges(reg)
	if opts.Tracer != nil {
		registerTracerGauges(reg, opts.Tracer)
	}
	if opts.SiteStats != nil {
		registerSiteVecs(reg, opts.SiteStats)
	}
	if opts.Links != nil {
		registerLinkVecs(reg, opts.Links)
	}
	if opts.Overload != nil {
		registerOverloadGauges(reg, opts.Overload)
	}

	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.reg.WritePrometheus(w)
	})
	// traced guards the endpoints that read the tracer.
	traced := func(body jsonBody) jsonBody {
		return func(r *http.Request) (any, int) {
			if opts.Tracer == nil {
				return "tracing off: no tracer attached", http.StatusNotFound
			}
			return body(r)
		}
	}
	serveJSON(s.mux, "/trace", traced(func(*http.Request) (any, int) {
		return chromeDump{trace.Local(opts.Tracer.Recent()), map[string]any{"reason": "live"}}, http.StatusOK
	}))
	serveJSON(s.mux, "/callsites", func(*http.Request) (any, int) {
		if opts.SiteStats == nil {
			return "no call-site stats source attached", http.StatusNotFound
		}
		return orEmpty(opts.SiteStats()), http.StatusOK
	})
	serveJSON(s.mux, "/links", func(*http.Request) (any, int) {
		if opts.Links == nil {
			return "no link stats source attached", http.StatusNotFound
		}
		return orEmpty(opts.Links()), http.StatusOK
	})
	serveJSON(s.mux, "/traces", traced(func(*http.Request) (any, int) {
		return TraceList{Version: TracesVersion, Node: nodeName(opts), Traces: orEmpty(opts.Tracer.Traces())}, http.StatusOK
	}))
	serveJSON(s.mux, "/traces/", traced(func(r *http.Request) (any, int) { return serveTrace(opts, r) }))
	serveJSON(s.mux, "/snapshot", func(*http.Request) (any, int) { return localSnapshot(opts), http.StatusOK })
	serveJSON(s.mux, "/cluster", func(r *http.Request) (any, int) {
		peers := opts.Peers
		if q := r.URL.Query().Get("peers"); q != "" {
			peers = splitPeers(q)
		}
		return buildClusterView(opts, peers), http.StatusOK
	})
	serveJSON(s.mux, "/buildinfo", func(*http.Request) (any, int) { return readBuildInfo(), http.StatusOK })
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// jsonBody computes one JSON endpoint's response: the document and
// http.StatusOK, or an error message and its status.
type jsonBody func(*http.Request) (any, int)

// chromeDump is a document trace.WriteChrome renders, with meta as
// its otherData, instead of the indenting encoder.
type chromeDump struct {
	spans []trace.TreeSpan
	meta  map[string]any
}

// serveJSON mounts a JSON endpoint on mux.
func serveJSON(mux *http.ServeMux, path string, body jsonBody) {
	mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		doc, status := body(r)
		if status != http.StatusOK {
			http.Error(w, doc.(string), status)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if d, ok := doc.(chromeDump); ok {
			_ = trace.WriteChrome(w, d.spans, d.meta)
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc)
	})
}

// orEmpty makes a nil slice encode as [] rather than null.
func orEmpty[T any](s []T) []T {
	if s == nil {
		return []T{}
	}
	return s
}

// Serve binds addr (e.g. ":9090" or "127.0.0.1:0") and serves the
// introspection endpoints in a background goroutine until Close.
func Serve(addr string, opts Options) (*Server, error) {
	s := newServer(opts)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// registerCounterGauges walks stats.Counters with reflection and
// registers one gauge per counter field, named
// cormi_counter_<snake_case_field>. Walking the struct (instead of a
// hand-written list) means a counter added to stats shows up on
// /metrics automatically — the same completeness property the stats
// package's reflection tests enforce for Snapshot.
func registerCounterGauges(reg *metrics.Registry, c *stats.Counters) {
	cv := reflect.ValueOf(c).Elem()
	ct := cv.Type()
	for i := 0; i < ct.NumField(); i++ {
		f := cv.Field(i)
		load := f.Addr().MethodByName("Load")
		if !load.IsValid() {
			continue
		}
		name := "cormi_counter_" + snakeCase(ct.Field(i).Name)
		reg.RegisterGauge(name, "runtime counter "+ct.Field(i).Name,
			func() float64 { return float64(load.Call(nil)[0].Int()) })
	}
}

// registerPoolGauges exposes the wire frame pool's outstanding-buffer
// balance, the leak witness for the buffer ownership protocol.
func registerPoolGauges(reg *metrics.Registry) {
	reg.RegisterGauge("cormi_wire_buf_gets_total", "lifetime wire.GetBuf calls",
		func() float64 { return float64(wire.Stats().Gets) })
	reg.RegisterGauge("cormi_wire_buf_puts_total", "lifetime wire.PutBuf calls",
		func() float64 { return float64(wire.Stats().Puts) })
	reg.RegisterGauge("cormi_wire_buf_outstanding", "frame-pool buffers currently owned by callers (gets - puts)",
		func() float64 { return float64(wire.Stats().Outstanding) })
}

// registerRobustnessGauges exposes the wire-robustness counter under
// the stable name the hardening design documents — an alias of the
// reflective cormi_counter_* series, kept explicit so dashboards do
// not depend on field spelling.
func registerRobustnessGauges(reg *metrics.Registry, c *stats.Counters) {
	reg.RegisterGauge("cormi_wire_malformed_total", "CRC-valid frames rejected as malformed (hostile or from another protocol)",
		func() float64 { return float64(c.MalformedFrames.Load()) })
}

// registerCtxGauges exposes the serializer's read-context pool balance
// — the leak witness proving every decode, including every rejected
// malformed frame, released its pooled context.
func registerCtxGauges(reg *metrics.Registry) {
	reg.RegisterGauge("cormi_serial_readctx_gets_total", "lifetime pooled read-context acquisitions",
		func() float64 { return float64(serial.ReadCtxStats().Gets) })
	reg.RegisterGauge("cormi_serial_readctx_puts_total", "lifetime pooled read-context releases",
		func() float64 { return float64(serial.ReadCtxStats().Puts) })
	reg.RegisterGauge("cormi_serial_readctx_outstanding", "pooled read contexts currently in use (gets - puts)",
		func() float64 { return float64(serial.ReadCtxStats().Outstanding) })
}

// registerLinkVecs exposes per-link negotiation state as labeled
// series: the negotiated protocol version, the capability bits, the
// calls refused for a plan mismatch and the malformed frames received,
// for every link that has completed its HELLO exchange.
func registerLinkVecs(reg *metrics.Registry, links func() []stats.LinkStat) {
	collect := func(value func(stats.LinkStat) float64) func() []metrics.LabeledValue {
		return func() []metrics.LabeledValue {
			ls := links()
			out := make([]metrics.LabeledValue, 0, len(ls))
			for _, l := range ls {
				out = append(out, metrics.LabeledValue{
					Labels: fmt.Sprintf("from=%q,to=%q", fmt.Sprint(l.From), fmt.Sprint(l.To)),
					Value:  value(l),
				})
			}
			return out
		}
	}
	reg.RegisterCounterVec("cormi_link_negotiated_version", "wire protocol version negotiated by the link's HELLO exchange",
		collect(func(l stats.LinkStat) float64 { return float64(l.Version) }))
	reg.RegisterCounterVec("cormi_link_caps", "capability bits negotiated by the link's HELLO exchange",
		collect(func(l stats.LinkStat) float64 { return float64(l.Caps) }))
	reg.RegisterCounterVec("cormi_link_refused_calls", "calls refused on the link because its peer runs other plans",
		collect(func(l stats.LinkStat) float64 { return float64(l.Refused) }))
	reg.RegisterCounterVec("cormi_link_malformed_frames", "malformed frames the link's node received from its peer",
		collect(func(l stats.LinkStat) float64 { return float64(l.Malformed) }))
}

// registerSiteVecs exposes the per-call-site counters as labeled
// counter vectors — one cormi_site_* family per SiteStat counter
// field, one series per site. Walking SiteStat with reflection keeps
// the family set complete as counters are added, mirroring
// registerCounterGauges.
func registerSiteVecs(reg *metrics.Registry, sites func() []stats.SiteStat) {
	st := reflect.TypeOf(stats.SiteStat{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if f.Type.Kind() != reflect.Int64 {
			continue
		}
		idx := i
		reg.RegisterCounterVec("cormi_site_"+snakeCase(f.Name), "per-call-site counter "+f.Name,
			func() []metrics.LabeledValue {
				ss := sites()
				out := make([]metrics.LabeledValue, 0, len(ss))
				for _, s := range ss {
					out = append(out, metrics.LabeledValue{
						Labels: fmt.Sprintf("site=%q", s.Site),
						Value:  float64(reflect.ValueOf(s).Field(idx).Int()),
					})
				}
				return out
			})
	}
}

// buildInfo is the /buildinfo JSON shape: enough provenance to match
// a running server to a source revision.
type buildInfo struct {
	GoVersion   string `json:"go_version"`
	Module      string `json:"module"`
	Version     string `json:"version"`
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSTime     string `json:"vcs_time,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`
}

func readBuildInfo() buildInfo {
	bi := buildInfo{GoVersion: runtime.Version()}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return bi
	}
	bi.Module = info.Main.Path
	bi.Version = info.Main.Version
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			bi.VCSRevision = s.Value
		case "vcs.time":
			bi.VCSTime = s.Value
		case "vcs.modified":
			bi.VCSModified = s.Value == "true"
		}
	}
	return bi
}

func registerTracerGauges(reg *metrics.Registry, tr *trace.Tracer) {
	reg.RegisterGauge("cormi_trace_spans_started_total", "trace spans opened",
		func() float64 { return float64(tr.SpansStarted()) })
	reg.RegisterGauge("cormi_trace_failures_total", "failed spans closed",
		func() float64 { return float64(tr.Failures()) })
	reg.RegisterGauge("cormi_trace_store_retained", "sampled traces currently retained by the bounded trace store",
		func() float64 { r, _, _ := tr.TraceStoreStats(); return float64(r) })
	reg.RegisterGauge("cormi_trace_store_evicted_total", "sampled traces evicted by the store's FIFO cap",
		func() float64 { _, e, _ := tr.TraceStoreStats(); return float64(e) })
	reg.RegisterGauge("cormi_trace_store_dropped_spans_total", "spans dropped by the per-trace span cap",
		func() float64 { _, _, d := tr.TraceStoreStats(); return float64(d) })
}

// registerOverloadGauges walks stats.OverloadStats with reflection and
// registers one gauge per backlog level, named cormi_<snake_case_field>
// (cormi_pending_calls).
// As with registerCounterGauges, a field added to the struct shows up
// on /metrics automatically.
func registerOverloadGauges(reg *metrics.Registry, overload func() stats.OverloadStats) {
	ot := reflect.TypeOf(stats.OverloadStats{})
	for i := 0; i < ot.NumField(); i++ {
		f := ot.Field(i)
		if f.Type.Kind() != reflect.Int64 {
			continue
		}
		idx := i
		reg.RegisterGauge("cormi_"+snakeCase(f.Name), "backlog level "+f.Name,
			func() float64 { return float64(reflect.ValueOf(overload()).Field(idx).Int()) })
	}
}

// snakeCase converts a Go exported field name to snake_case, starting
// a new word only after a lowercase rune so acronym runs stay whole
// (RemoteRPCs → remote_rpcs, DupSuppressed → dup_suppressed).
func snakeCase(s string) string {
	var b strings.Builder
	prevLower := false
	for _, r := range s {
		if r >= 'A' && r <= 'Z' {
			if prevLower {
				b.WriteByte('_')
			}
			b.WriteRune(r - 'A' + 'a')
			prevLower = false
		} else {
			b.WriteRune(r)
			prevLower = r >= 'a' && r <= 'z'
		}
	}
	return b.String()
}
