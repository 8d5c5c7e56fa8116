package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"cormi/internal/model"
	"cormi/internal/rmi"
	"cormi/internal/serial"
	"cormi/internal/stats"
	"cormi/internal/trace"
	"cormi/internal/transport"
	"cormi/internal/wire"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// startTracedCluster runs one traced RMI so every endpoint has data.
func startTracedCluster(t *testing.T) (*rmi.Cluster, *trace.Tracer) {
	t.Helper()
	tr := trace.New(trace.Config{RingSize: 64})
	c := rmi.New(2, rmi.WithTracer(tr))
	t.Cleanup(c.Close)
	ref := c.Node(1).Export(&rmi.Service{
		Name: "Echo",
		Methods: map[string]rmi.Method{
			"echo": func(call *rmi.Call, args []model.Value) []model.Value {
				return []model.Value{args[0]}
			},
		},
	})
	cs := c.MustNewCallSite(rmi.LevelSite, rmi.SiteSpec{
		Name: "obs.echo.1", Method: "echo",
		ArgPlans: []*serial.Plan{serial.PrimitivePlan("obs.echo.1", model.FInt)},
		RetPlans: []*serial.Plan{serial.PrimitivePlan("obs.echo.1", model.FInt)},
	})
	if _, err := cs.Invoke(c.Node(0), ref, []model.Value{model.Int(5)}); err != nil {
		t.Fatal(err)
	}
	return c, tr
}

func TestServeEndpoints(t *testing.T) {
	c, tr := startTracedCluster(t)
	s, err := Serve("127.0.0.1:0", Options{Tracer: tr, Counters: c.Counters})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	base := "http://" + s.Addr()

	code, body := get(t, base+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body = get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"cormi_counter_remote_rpcs 1",
		"cormi_counter_messages",
		"cormi_counter_retries",
		"cormi_counter_timeouts",
		"cormi_counter_dup_suppressed",
		"cormi_counter_corrupt_dropped",
		"cormi_counter_stale_replies",
		"cormi_wire_buf_outstanding",
		"cormi_trace_spans_started_total 2",
		"cormi_phase_latency_ns_bucket",
		`site="obs.echo.1",phase="execute"`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body = get(t, base+"/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace status %d", code)
	}
	var chromeDoc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &chromeDoc); err != nil {
		t.Fatalf("/trace is not Chrome-trace JSON: %v", err)
	}
	if len(chromeDoc.TraceEvents) == 0 {
		t.Fatal("/trace has no events after a traced call")
	}

	// The per-(site, phase) latency histograms are /snapshot's.
	code, body = get(t, base+"/snapshot")
	if code != http.StatusOK {
		t.Fatalf("/snapshot status %d", code)
	}
	var snap NodeSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/snapshot is not JSON: %v", err)
	}
	var sawExec bool
	for _, sa := range snap.Sites {
		for _, ph := range sa.Phases {
			if ph.Phase == "execute" && sa.Site == "obs.echo.1" && ph.Hist.Quantile(0.99) > 0 {
				sawExec = true
			}
		}
	}
	if !sawExec {
		t.Error("/snapshot missing execute quantiles")
	}

	code, body = get(t, base+"/debug/pprof/cmdline")
	if code != http.StatusOK || body == "" {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}

func TestServeWithoutTracer(t *testing.T) {
	var c stats.Counters
	c.RemoteRPCs.Add(3)
	s, err := Serve("127.0.0.1:0", Options{Counters: &c})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	base := "http://" + s.Addr()

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "cormi_counter_remote_rpcs 3") {
		t.Fatalf("/metrics without tracer = %d %q", code, body)
	}
	if code, _ := get(t, base+"/trace"); code != http.StatusNotFound {
		t.Fatalf("/trace without tracer = %d, want 404", code)
	}
}

func TestSnakeCase(t *testing.T) {
	for in, want := range map[string]string{
		"RemoteRPCs":     "remote_rpcs",
		"LocalRPCs":      "local_rpcs",
		"WireBytes":      "wire_bytes",
		"DupSuppressed":  "dup_suppressed",
		"AcksOnly":       "acks_only",
		"TypeOps":        "type_ops",
		"CorruptDropped": "corrupt_dropped",
	} {
		if got := snakeCase(in); got != want {
			t.Errorf("snakeCase(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCounterGaugesCoverEveryField(t *testing.T) {
	// The reflective gauge registration must expose every Counters
	// field; pair with the stats completeness tests, this keeps the
	// whole pipeline (counter → snapshot → /metrics) closed under
	// field additions.
	var c stats.Counters
	s, err := Serve("127.0.0.1:0", Options{Counters: &c})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	_, body := get(t, "http://"+s.Addr()+"/metrics")
	for _, name := range []string{
		"remote_rpcs", "local_rpcs", "messages", "wire_bytes", "type_bytes",
		"type_ops", "serializer_calls", "inlined_writes", "introspect_ops",
		"cycle_tables", "cycle_lookups", "alloc_objects", "alloc_bytes",
		"reused_objs", "reused_bytes", "acks_only", "retries", "timeouts",
		"dup_suppressed", "corrupt_dropped", "stale_replies",
	} {
		if !strings.Contains(body, "cormi_counter_"+name) {
			t.Errorf("/metrics missing cormi_counter_%s", name)
		}
	}
}

func TestCallsitesEndpoint(t *testing.T) {
	c, tr := startTracedCluster(t)
	s, err := Serve("127.0.0.1:0", Options{Tracer: tr, Counters: c.Counters, SiteStats: c.SiteStats})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	base := "http://" + s.Addr()

	code, body := get(t, base+"/callsites")
	if code != http.StatusOK {
		t.Fatalf("/callsites status %d", code)
	}
	var sites []stats.SiteStat
	if err := json.Unmarshal([]byte(body), &sites); err != nil {
		t.Fatalf("/callsites is not JSON: %v\n%s", err, body)
	}
	if len(sites) != 1 || sites[0].Site != "obs.echo.1" {
		t.Fatalf("/callsites = %+v, want one obs.echo.1 entry", sites)
	}
	if sites[0].Calls != 1 || sites[0].WireBytes <= 0 {
		t.Errorf("live counters not served: %+v", sites[0])
	}
	if !strings.Contains(body, `"wire_bytes"`) {
		t.Errorf("/callsites keys not snake_case: %s", body)
	}

	// The same counters appear as labeled series on /metrics, one
	// cormi_site_* family per SiteStat counter field.
	_, mbody := get(t, base+"/metrics")
	for _, want := range []string{
		`cormi_site_calls{site="obs.echo.1"} 1`,
		`cormi_site_wire_bytes{site="obs.echo.1"}`,
		`cormi_site_reuse_hits{site="obs.echo.1"}`,
		`cormi_site_claim_violations{site="obs.echo.1"} 0`,
	} {
		if !strings.Contains(mbody, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestCallsitesWithoutSource(t *testing.T) {
	var c stats.Counters
	s, err := Serve("127.0.0.1:0", Options{Counters: &c})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if code, _ := get(t, "http://"+s.Addr()+"/callsites"); code != http.StatusNotFound {
		t.Fatalf("/callsites without source = %d, want 404", code)
	}
}

func TestBuildinfoEndpoint(t *testing.T) {
	var c stats.Counters
	s, err := Serve("127.0.0.1:0", Options{Counters: &c})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	code, body := get(t, "http://"+s.Addr()+"/buildinfo")
	if code != http.StatusOK {
		t.Fatalf("/buildinfo status %d", code)
	}
	var bi struct {
		GoVersion string `json:"go_version"`
		Module    string `json:"module"`
	}
	if err := json.Unmarshal([]byte(body), &bi); err != nil {
		t.Fatalf("/buildinfo is not JSON: %v\n%s", err, body)
	}
	if bi.GoVersion == "" {
		t.Error("/buildinfo missing go_version")
	}
	if bi.Module != "cormi" {
		t.Errorf("/buildinfo module = %q, want cormi", bi.Module)
	}
}

// startTracedNode builds one independent "node" for cluster-view tests:
// its own 2-node RMI cluster, tracer, and obs server named name. Every
// node registers the same call site, so their attribution rows merge.
func startTracedNode(t *testing.T, name string, tcfg trace.Config) (*rmi.Cluster, *trace.Tracer, *Server) {
	t.Helper()
	tr := trace.New(tcfg)
	c := rmi.New(2, rmi.WithTracer(tr))
	t.Cleanup(c.Close)
	s, err := Serve("127.0.0.1:0", Options{
		Tracer: tr, Counters: c.Counters, NodeName: name, Overload: c.Overload,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return c, tr, s
}

// invokeEcho runs count traced echo calls on the node's cluster, with
// the callee sleeping delay per call.
func invokeEcho(t *testing.T, c *rmi.Cluster, count int, delay time.Duration) {
	t.Helper()
	ref := c.Node(1).Export(&rmi.Service{
		Name: "Echo",
		Methods: map[string]rmi.Method{
			"echo": func(call *rmi.Call, args []model.Value) []model.Value {
				if delay > 0 {
					time.Sleep(delay)
				}
				return []model.Value{args[0]}
			},
		},
	})
	cs := c.MustNewCallSite(rmi.LevelSite, rmi.SiteSpec{
		Name: "obs.echo.1", Method: "echo",
		ArgPlans: []*serial.Plan{serial.PrimitivePlan("obs.echo.1", model.FInt)},
		RetPlans: []*serial.Plan{serial.PrimitivePlan("obs.echo.1", model.FInt)},
	})
	for i := 0; i < count; i++ {
		if _, err := cs.Invoke(c.Node(0), ref, []model.Value{model.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSnapshotEndpoint(t *testing.T) {
	c, _, s := startTracedNode(t, "n0", trace.Config{RingSize: 64})
	invokeEcho(t, c, 3, 0)

	code, body := get(t, "http://"+s.Addr()+"/snapshot")
	if code != http.StatusOK {
		t.Fatalf("/snapshot status %d", code)
	}
	var ns NodeSnapshot
	if err := json.Unmarshal([]byte(body), &ns); err != nil {
		t.Fatalf("/snapshot is not JSON: %v\n%s", err, body)
	}
	if ns.Version != SnapshotVersion {
		t.Errorf("snapshot version = %d, want %d", ns.Version, SnapshotVersion)
	}
	if ns.Node != "n0" {
		t.Errorf("snapshot node = %q, want n0", ns.Node)
	}
	if ns.CapturedWallNS == 0 {
		t.Error("snapshot missing captured_wall_ns")
	}
	var site *trace.SiteAttribution
	for i := range ns.Sites {
		if ns.Sites[i].Site == "obs.echo.1" {
			site = &ns.Sites[i]
		}
	}
	if site == nil {
		t.Fatalf("/snapshot missing obs.echo.1: %s", body)
	}
	if site.Calls != 3 {
		t.Errorf("site calls = %d, want 3", site.Calls)
	}
	if phase, _ := site.TopBlame(); phase == "" {
		t.Errorf("site snapshot has no top blame: %+v", site.Phases)
	}
}

func TestClusterEndpointMergesPeers(t *testing.T) {
	// Three independent nodes, each with its own obs server and the
	// same call site; one node aggregates the other two over HTTP.
	c0, _, s0 := startTracedNode(t, "n0", trace.Config{RingSize: 64})
	c1, _, s1 := startTracedNode(t, "n1", trace.Config{RingSize: 64})
	c2, _, s2 := startTracedNode(t, "n2", trace.Config{RingSize: 64})
	invokeEcho(t, c0, 2, 0)
	invokeEcho(t, c1, 3, 0)
	invokeEcho(t, c2, 5, 0)

	url := "http://" + s0.Addr() + "/cluster?peers=" + s1.Addr() + "," + s2.Addr()
	code, body := get(t, url)
	if code != http.StatusOK {
		t.Fatalf("/cluster status %d", code)
	}
	var cv ClusterView
	if err := json.Unmarshal([]byte(body), &cv); err != nil {
		t.Fatalf("/cluster is not JSON: %v\n%s", err, body)
	}
	if cv.Version != SnapshotVersion {
		t.Errorf("cluster version = %d, want %d", cv.Version, SnapshotVersion)
	}
	if len(cv.Nodes) != 3 {
		t.Errorf("cluster nodes = %v, want 3 entries", cv.Nodes)
	}
	if len(cv.Errors) != 0 {
		t.Errorf("cluster errors = %v, want none", cv.Errors)
	}
	var row *ClusterSite
	for i := range cv.Sites {
		if cv.Sites[i].Site == "obs.echo.1" {
			row = &cv.Sites[i]
		}
	}
	if row == nil {
		t.Fatalf("/cluster missing obs.echo.1: %s", body)
	}
	if row.Calls != 10 {
		t.Errorf("merged calls = %d, want 10 (2+3+5)", row.Calls)
	}
	if row.P50NS <= 0 || row.P50NS > row.P95NS || row.P95NS > row.P99NS {
		t.Errorf("quantiles not monotone: p50=%d p95=%d p99=%d", row.P50NS, row.P95NS, row.P99NS)
	}
	if row.TopBlame == "" || row.TopBlameShare <= 0 {
		t.Errorf("merged row has no top blame: %+v", row)
	}

	// An unreachable peer degrades to an error entry, not a failure.
	code, body = get(t, "http://"+s0.Addr()+"/cluster?peers=127.0.0.1:1")
	if code != http.StatusOK {
		t.Fatalf("/cluster with dead peer status %d", code)
	}
	if err := json.Unmarshal([]byte(body), &cv); err != nil {
		t.Fatal(err)
	}
	if len(cv.Errors) != 1 {
		t.Errorf("dead peer not reported: errors = %v", cv.Errors)
	}
	if len(cv.Nodes) != 1 {
		t.Errorf("dead peer merged anyway: nodes = %v", cv.Nodes)
	}

	// A peer serving the version 1 document, whose sites carry the blame
	// table and exemplar count, is refused with a version error.
	v1 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"version":1,"node":"old","sites":[{"site":"obs.echo.1","calls":4,`+
			`"blame":[{"phase":"execute","wins":4,"self_ns":4000}],"threshold_ns":0,"exemplars":0}]}`)
	}))
	t.Cleanup(v1.Close)
	code, body = get(t, "http://"+s0.Addr()+"/cluster?peers="+v1.Listener.Addr().String())
	if code != http.StatusOK {
		t.Fatalf("/cluster with a v1 peer status %d", code)
	}
	if err := json.Unmarshal([]byte(body), &cv); err != nil {
		t.Fatal(err)
	}
	if len(cv.Errors) != 1 || !strings.Contains(cv.Errors[0], "document version 1, want 2") {
		t.Errorf("v1 peer not refused for its version: errors = %v", cv.Errors)
	}
	if len(cv.Nodes) != 1 || cv.Sites[0].Calls != 2 {
		t.Errorf("v1 peer merged anyway: nodes = %v, sites = %+v", cv.Nodes, cv.Sites)
	}
}

// TestTraceViewRejectsSkewedPeer: a peer serving its /traces/<id>
// document at another version is reported in the view's errors, and
// its spans stay out of the merged tree.
func TestTraceViewRejectsSkewedPeer(t *testing.T) {
	const id = 0x77
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(TraceDoc{
			Version: TracesVersion + 1, Node: "skewed", TraceID: id,
			Spans: []trace.SpanRecord{{
				Site: "obs.echo.1", Kind: trace.KindCaller, Start: 100, End: 200,
				TraceID: id, SpanID: 1,
			}},
		})
	}))
	t.Cleanup(peer.Close)
	_, _, s := startTracedNode(t, "n0", trace.Config{RingSize: 8})

	code, body := get(t, fmt.Sprintf("http://%s/traces/%d?peers=%s", s.Addr(), id, peer.Listener.Addr()))
	if code != http.StatusOK {
		t.Fatalf("/traces/<id> with a skewed peer: status %d", code)
	}
	var view TraceView
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatalf("/traces/<id> is not JSON: %v\n%s", err, body)
	}
	if len(view.Errors) != 1 || !strings.Contains(view.Errors[0], "version") {
		t.Errorf("skewed peer not reported as a version error: %v", view.Errors)
	}
	if len(view.Nodes) != 1 || view.Tree == nil || len(view.Tree.Spans) != 0 {
		t.Errorf("skewed peer merged anyway: nodes %v, tree %+v", view.Nodes, view.Tree)
	}
}

func TestSnapshotWithoutTracer(t *testing.T) {
	var c stats.Counters
	s, err := Serve("127.0.0.1:0", Options{Counters: &c})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if code, _ := get(t, "http://"+s.Addr()+"/traces"); code != http.StatusNotFound {
		t.Fatalf("/traces without tracer = %d, want 404", code)
	}
	// /snapshot stays up (versioned protocol; a metrics-only node just
	// contributes no sites), so /cluster never chokes on a mixed fleet.
	code, body := get(t, "http://"+s.Addr()+"/snapshot")
	if code != http.StatusOK {
		t.Fatalf("/snapshot without tracer = %d, want 200", code)
	}
	var ns NodeSnapshot
	if err := json.Unmarshal([]byte(body), &ns); err != nil {
		t.Fatal(err)
	}
	if ns.Version != SnapshotVersion || len(ns.Sites) != 0 {
		t.Errorf("tracerless snapshot = %+v", ns)
	}
}

func TestOverloadGaugesCoverEveryField(t *testing.T) {
	// Mirror of TestCounterGaugesCoverEveryField for the backlog levels:
	// every OverloadStats field must surface as a cormi_* gauge with its
	// live value, automatically as fields are added.
	var o stats.OverloadStats
	ov := reflect.ValueOf(&o).Elem()
	for i := 0; i < ov.NumField(); i++ {
		ov.Field(i).SetInt(int64(9100 + i*7))
	}
	s, err := Serve("127.0.0.1:0", Options{Overload: func() stats.OverloadStats { return o }})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	_, body := get(t, "http://"+s.Addr()+"/metrics")
	ot := ov.Type()
	for i := 0; i < ot.NumField(); i++ {
		want := fmt.Sprintf("cormi_%s %d", snakeCase(ot.Field(i).Name), 9100+i*7)
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing overload gauge %q", want)
		}
	}
}

// TestLinkMalformedFrames: a hostile frame node 0 receives from peer 1
// raises the malformed count of that one link — in Cluster.LinkStats,
// on /links and as its cormi_link_malformed_frames series — and no
// other link's.
func TestLinkMalformedFrames(t *testing.T) {
	c := rmi.New(3)
	t.Cleanup(c.Close)
	invokeEcho(t, c, 1, 0) // links 0->1 and 1->0 carry honest traffic
	m := wire.Get()
	m.AppendByte(0xEE) // no such message tag
	m.SealFrame()
	if err := c.Network().Endpoint(1).Send(transport.Packet{To: 0, Payload: m.Detach()}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Second); c.Counters.MalformedFrames.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("hostile frame never counted")
		}
	}

	s, err := Serve("127.0.0.1:0", Options{Counters: c.Counters, Links: c.LinkStats})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, body := get(t, "http://"+s.Addr()+"/links")
	var links []stats.LinkStat
	if err := json.Unmarshal([]byte(body), &links); err != nil {
		t.Fatalf("/links is not a link list: %v\n%s", err, body)
	}
	if len(links) < 2 {
		t.Fatalf("/links lists %d links, want both directions of 0-1: %s", len(links), body)
	}
	_, metrics := get(t, "http://"+s.Addr()+"/metrics")
	for _, l := range links {
		want := int64(0)
		if l.From == 0 && l.To == 1 {
			want = 1
		}
		if l.Malformed != want {
			t.Errorf("link %d->%d: malformed %d, want %d", l.From, l.To, l.Malformed, want)
		}
		series := fmt.Sprintf("cormi_link_malformed_frames{from=\"%d\",to=\"%d\"} %d\n", l.From, l.To, want)
		if !strings.Contains(metrics, series) {
			t.Errorf("/metrics lacks %q", series)
		}
	}
}
