package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"cormi/internal/obs"
	"cormi/internal/trace"
)

// fakeCluster serves a /cluster document whose call count grows by
// step per request, so the rate column has something to measure.
func fakeCluster(t *testing.T, step uint64) *httptest.Server {
	t.Helper()
	var polls atomic.Uint64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/cluster" {
			http.NotFound(w, r)
			return
		}
		n := polls.Add(1)
		cv := obs.ClusterView{
			Version: obs.SnapshotVersion,
			Nodes:   []string{"n0", "n1", "n2"},
			Sites: []obs.ClusterSite{{
				Site:          "Attrib.echo.1",
				Calls:         step * n,
				P50NS:         1_200_000,
				P95NS:         4_000_000,
				P99NS:         9_500_000,
				TopBlame:      "execute",
				TopBlameShare: 0.85,
			}},
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(cv)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestOnceRendersClusterTable(t *testing.T) {
	srv := fakeCluster(t, 100)
	var out, errb bytes.Buffer
	if code := run([]string{"-cluster", srv.URL, "-once"}, &out, &errb); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errb.String())
	}
	got := out.String()
	for _, want := range []string{
		"3 node(s): n0, n1, n2",
		"Attrib.echo.1",
		"1.20ms",  // p50
		"9.50ms",  // p99
		"execute", // top blame
		"85%",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "\x1b[2J") {
		t.Error("-once frame should not clear the screen")
	}
}

func TestRateFromCallDeltas(t *testing.T) {
	srv := fakeCluster(t, 500)
	var out, errb bytes.Buffer
	if code := run([]string{"-cluster", srv.URL, "-frames", "2", "-interval", "10ms"}, &out, &errb); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errb.String())
	}
	frames := strings.Split(out.String(), "rmitop — ")
	if len(frames) != 3 { // leading empty + two frames
		t.Fatalf("expected 2 frames, got %d:\n%s", len(frames)-1, out.String())
	}
	if !strings.Contains(frames[1], " - ") {
		t.Errorf("first frame should show no rate:\n%s", frames[1])
	}
	// Second frame: 500 new calls over ~10ms >> 0/s.
	if strings.Contains(frames[2], " - ") || !strings.Contains(frames[2], ".") {
		t.Errorf("second frame missing a computed rate:\n%s", frames[2])
	}
}

func TestPollFailure(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-cluster", "127.0.0.1:1", "-once"}, &out, &errb); code != 1 {
		t.Fatalf("run against dead server = %d, want 1", code)
	}
	if errb.Len() == 0 {
		t.Error("no error reported for dead server")
	}
}

func TestVersionSkewRejected(t *testing.T) {
	for _, tc := range []struct {
		endpoint string
		doc      any
		args     []string
	}{
		{"/cluster", obs.ClusterView{Version: obs.SnapshotVersion + 1}, []string{"-once"}},
		// Version 1 carried per-site blame tables and exemplar counts.
		{"/cluster v1", obs.ClusterView{Version: 1}, []string{"-once"}},
		{"/traces", obs.TraceList{Version: obs.TracesVersion + 1}, []string{"-slow", "Attrib.echo.1"}},
		{"/traces/<id>", obs.TraceView{Version: obs.TracesVersion + 1}, []string{"-trace", "0x1234"}},
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_ = json.NewEncoder(w).Encode(tc.doc)
		}))
		var out, errb bytes.Buffer
		if code := run(append([]string{"-cluster", srv.URL}, tc.args...), &out, &errb); code != 1 {
			t.Errorf("%s: run against skewed version = %d, want 1", tc.endpoint, code)
		}
		if !strings.Contains(errb.String(), "version") {
			t.Errorf("%s: skew error not reported: %s", tc.endpoint, errb.String())
		}
		srv.Close()
	}
}

func TestFmtNS(t *testing.T) {
	for ns, want := range map[int64]string{
		0:             "-",
		512:           "512ns",
		1_500:         "1.5µs",
		2_340_000:     "2.34ms",
		3_200_000_000: "3.20s",
	} {
		if got := fmtNS(ns); got != want {
			t.Errorf("fmtNS(%d) = %q, want %q", ns, got, want)
		}
	}
}

// fakeTraceServer serves a /traces list and a merged /traces/<id>
// view, mimicking an obs node with the tracing endpoints. Only trace
// 0x1234, the slowest rooted at Attrib.echo.1, has a tree.
func fakeTraceServer(t *testing.T) *httptest.Server {
	t.Helper()
	tree := trace.BuildTree(0x1234, []trace.NodeSpans{
		{Node: "n0", Spans: []trace.SpanRecord{{
			Site: "Attrib.echo.1", Method: "echo", Kind: trace.KindCaller,
			Seq: 9, Start: 100, End: 5_000_100,
			TraceID: 0x1234, Hop: 0,
		}}},
		{Node: "n1", Spans: []trace.SpanRecord{{
			Site: "Attrib.echo.1", Method: "echo", Kind: trace.KindCallee,
			Seq: 9, Start: 1_000, End: 4_900_000,
			TraceID: 0x1234, Hop: 1,
		}}},
	})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/traces":
			_ = json.NewEncoder(w).Encode(obs.TraceList{
				Version: obs.TracesVersion, Node: "n0",
				Traces: []trace.TraceSummary{
					{TraceID: 0x99, Spans: 2, StartNS: 100, EndNS: 2_000_100, Root: "Attrib.echo.1"},
					{TraceID: 0x77, Spans: 2, StartNS: 0, EndNS: 9_000_000, Root: "Other.site.1"},
					{TraceID: 0x1234, Spans: 2, StartNS: 100, EndNS: 5_000_100, Root: "Attrib.echo.1"},
				},
			})
		case r.URL.Path == "/traces/4660" || r.URL.Path == "/traces/0x1234":
			_ = json.NewEncoder(w).Encode(obs.TraceView{
				Version: obs.TracesVersion, Nodes: []string{"n0", "n1"}, Tree: tree,
			})
		case strings.HasPrefix(r.URL.Path, "/traces/"):
			_ = json.NewEncoder(w).Encode(obs.TraceView{Version: obs.TracesVersion, Nodes: []string{"n0"}})
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestTraceDrillDownRendersTree(t *testing.T) {
	srv := fakeTraceServer(t)
	var out, errb bytes.Buffer
	if code := run([]string{"-cluster", srv.URL, "-trace", "0x1234"}, &out, &errb); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errb.String())
	}
	got := out.String()
	for _, want := range []string{
		"trace 0x1234",
		"n0, n1",
		"[caller] hop=0 @n0",
		"[callee] hop=1 @n1",
		"critical path",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("tree output missing %q:\n%s", want, got)
		}
	}
}

func TestSlowDrillDownFollowsSlowestTrace(t *testing.T) {
	srv := fakeTraceServer(t)
	var out, errb bytes.Buffer
	if code := run([]string{"-cluster", srv.URL, "-slow", "Attrib.echo.1"}, &out, &errb); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errb.String())
	}
	got := out.String()
	if strings.Contains(got, "0x77") {
		t.Error("traces rooted at other sites leaked into the drill-down")
	}
	if i, j := strings.Index(got, "0x1234"), strings.Index(got, "0x99"); i < 0 || j < 0 || i > j {
		t.Errorf("drill-down must list the site's traces slowest first (0x1234 before 0x99):\n%s", got)
	}
	for _, want := range []string{
		"5.00ms",       // the slowest trace's duration
		"trace 0x1234", // ...followed into its tree
		"[callee] hop=1 @n1",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("drill-down missing %q:\n%s", want, got)
		}
	}

	out.Reset()
	if code := run([]string{"-cluster", srv.URL, "-slow", "No.such.1"}, &out, &errb); code != 0 {
		t.Fatalf("run for a site with no traces = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "no retained traces rooted at No.such.1") {
		t.Errorf("site with no traces: %q", out.String())
	}
}
