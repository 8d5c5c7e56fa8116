// Command rminode demonstrates the distributed transport: it runs an
// n-node cluster whose nodes talk over real TCP sockets (loopback)
// instead of the in-process channel network, performs a round of
// remote calls at every optimization level, and prints the observed
// statistics. It is the deployment-shaped counterpart of the
// benchmarks: everything crosses a real network stack.
//
// With -drop/-dup/-reorder/-corrupt the TCP network is wrapped in the
// seeded fault injector and calls run under a deadline/retry policy —
// a live demonstration that recovery works over a real network stack,
// not just the in-process transport.
//
// With -obs ADDR the node serves the introspection endpoints listed in
// README's endpoint table while it runs. -obs-smoke probes them from
// inside the process after the run and exits nonzero if any is broken
// (the `make obs-smoke` gate, no curl needed).
//
// Usage:
//
//	rminode [-nodes 2] [-sends 50]
//	rminode -drop 0.1 -dup 0.05        # chaos over real TCP
//	rminode -obs :9090                 # serve the endpoint table
//	rminode -obs-smoke                 # self-check the obs endpoints
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"cormi/internal/apps/appkit"
	"cormi/internal/core"
	"cormi/internal/model"
	"cormi/internal/obs"
	"cormi/internal/rmi"
	"cormi/internal/stats"
	"cormi/internal/trace"
	"cormi/internal/transport"
)

const src = `
class Vector { double[] data; }
remote class Store {
	double put(Vector v) { return 0.0; }
}
class Main {
	static void main() {
		Store s = new Store();
		Vector v = new Vector();
		v.data = new double[256];
		double sum = s.put(v);
		double use = sum + 1.0;
	}
}
`

func main() {
	nodes := flag.Int("nodes", 2, "cluster size")
	sends := flag.Int("sends", 50, "RMIs per optimization level")
	drop := flag.Float64("drop", 0, "packet drop probability")
	dup := flag.Float64("dup", 0, "packet duplication probability")
	reorder := flag.Float64("reorder", 0, "packet reordering probability")
	corrupt := flag.Float64("corrupt", 0, "payload corruption probability")
	seed := flag.Int64("seed", 42, "fault injection seed")
	obsAddr := flag.String("obs", "", "serve the observability endpoints (README's endpoint table) on this address, e.g. :9090")
	obsSmoke := flag.Bool("obs-smoke", false, "probe the -obs endpoints after the run and exit nonzero on failure")
	obsName := flag.String("obs-name", "rminode", "node name in /snapshot and /cluster documents")
	obsPeers := flag.String("obs-peers", "", "comma-separated peer obs addresses that /cluster merges by default")
	sample := flag.Int("sample", 64, "with -obs: head-sample every Nth root call into the distributed trace store (/traces; 0 disables)")
	flag.Parse()
	if *nodes < 1 {
		fmt.Fprintf(os.Stderr, "rminode: -nodes must be at least 1, got %d\n", *nodes)
		os.Exit(2)
	}

	faultCfg := transport.FaultConfig{
		Seed: *seed,
		FaultRates: transport.FaultRates{
			Drop: *drop, Dup: *dup, Reorder: *reorder, Corrupt: *corrupt,
		},
	}

	// The tracer and the HTTP surface outlive the per-level clusters:
	// one flight recorder accumulates spans across the whole run, and
	// /callsites aggregates the per-site counters across clusters
	// (every level registers the same textual call site, so the
	// snapshots sharing a site id are summed).
	var tracer *trace.Tracer
	var server *obs.Server
	var csMu sync.Mutex
	var clusters []*rmi.Cluster
	siteStats := func() []stats.SiteStat {
		csMu.Lock()
		defer csMu.Unlock()
		idx := map[string]int{}
		var out []stats.SiteStat
		for _, c := range clusters {
			for _, s := range c.SiteStats() {
				if i, ok := idx[s.Site]; ok {
					out[i] = out[i].Add(s)
				} else {
					idx[s.Site] = len(out)
					out = append(out, s)
				}
			}
		}
		return out
	}
	linkStats := func() []stats.LinkStat {
		csMu.Lock()
		defer csMu.Unlock()
		perCluster := make([][]stats.LinkStat, len(clusters))
		for i, c := range clusters {
			perCluster[i] = c.LinkStats()
		}
		return mergeLinks(perCluster)
	}
	// Backlog levels aggregate across the per-level clusters the same
	// way /callsites does: field-wise sums of each cluster's snapshot.
	overload := func() stats.OverloadStats {
		csMu.Lock()
		defer csMu.Unlock()
		var o stats.OverloadStats
		for _, c := range clusters {
			o = o.Add(c.Overload())
		}
		return o
	}
	if *obsSmoke && *obsAddr == "" {
		*obsAddr = "127.0.0.1:0"
	}
	if *obsAddr != "" {
		tracer = trace.New(trace.Config{RingSize: 4096, SampleEvery: int64(*sample)})
		var err error
		var peers []string
		for _, p := range strings.Split(*obsPeers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
		server, err = obs.Serve(*obsAddr, obs.Options{
			Tracer: tracer, SiteStats: siteStats, Links: linkStats,
			NodeName: *obsName, Peers: peers, Overload: overload,
		})
		if err != nil {
			fail(err)
		}
		defer server.Close()
		fmt.Printf("observability endpoints on http://%s (README's endpoint table)\n", server.Addr())
	}

	for _, level := range rmi.AllLevels {
		nw, err := transport.NewTCPNetworkLocal(*nodes)
		if err != nil {
			fail(err)
		}
		opts := []rmi.Option{rmi.WithNetwork(nw)}
		if tracer != nil {
			opts = append(opts, rmi.WithTracer(tracer))
		}
		if faultCfg.Enabled() {
			opts = append(opts,
				rmi.WithFaults(faultCfg),
				rmi.WithCallPolicy(rmi.CallPolicy{
					Timeout: 200 * time.Millisecond, Retries: 12,
					Backoff: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond,
				}))
		}
		cluster := rmi.New(*nodes, opts...)
		csMu.Lock()
		clusters = append(clusters, cluster)
		csMu.Unlock()
		res, err := core.CompileInto(src, cluster.Registry)
		if err != nil {
			fail(err)
		}
		si := res.SiteByName("Main.main.1")
		if si == nil {
			fail(fmt.Errorf("call site missing"))
		}
		cs, err := appkit.Register(cluster, level, si)
		if err != nil {
			fail(err)
		}

		vecClass, _ := res.ModelClass("Vector")
		svc := &rmi.Service{Name: "Store", Methods: map[string]rmi.Method{
			"put": func(call *rmi.Call, args []model.Value) []model.Value {
				var s float64
				for _, x := range args[0].O.Fields[0].O.Doubles {
					s += x
				}
				return []model.Value{model.Double(s)}
			},
		}}
		ref := cluster.Node(*nodes - 1).Export(svc)

		vec := model.New(vecClass)
		arr := model.NewArray(cluster.Registry.DoubleArray(), 256)
		for i := range arr.Doubles {
			arr.Doubles[i] = float64(i)
		}
		vec.Fields[0] = model.Ref(arr)

		want := float64(255 * 256 / 2)
		for i := 0; i < *sends; i++ {
			rets, err := cs.Invoke(cluster.Node(0), ref, []model.Value{model.Ref(vec)})
			if err != nil {
				fail(err)
			}
			if rets[0].D != want {
				fail(fmt.Errorf("sum over TCP = %g, want %g", rets[0].D, want))
			}
		}
		s := cluster.Counters.Snapshot()
		fmt.Print(summary(level, s))
		if faultCfg.Enabled() {
			fmt.Printf("  retries=%d dup-suppr=%d corrupt-drop=%d", s.Retries, s.DupSuppressed, s.CorruptDropped)
		}
		fmt.Println()
		cluster.Close()
	}

	if *obsSmoke {
		if err := smokeObs("http://"+server.Addr(), int64(*sends)); err != nil {
			fail(fmt.Errorf("obs smoke: %w", err))
		}
		fmt.Println("obs smoke OK: /healthz, /metrics, /callsites, /links, /buildinfo, /snapshot, /cluster, /traces and /traces/<id> served valid documents; /trace and /traces/<id>?format=chrome valid Chrome traces")
	}
}

// mergeLinks aggregates /links across the per-level clusters like
// /callsites: every cluster negotiates the same (from, to) links, so
// rows sharing a direction merge — the refused calls and malformed
// frames sum, the negotiated version, plan generation and capabilities
// (identical across clusters by construction) come from the latest
// row. Merging keeps the labeled /metrics series unique per direction.
func mergeLinks(perCluster [][]stats.LinkStat) []stats.LinkStat {
	idx := map[[2]int]int{}
	var out []stats.LinkStat
	for _, links := range perCluster {
		for _, l := range links {
			key := [2]int{l.From, l.To}
			i, ok := idx[key]
			if !ok {
				idx[key] = len(out)
				out = append(out, l)
				continue
			}
			l.Refused += out[i].Refused
			l.Malformed += out[i].Malformed
			out[i] = l
		}
	}
	return out
}

// summary is a level's line of the run's report: its calls, labelled
// by where they went (a one-node cluster makes every call local, cloned
// and never framed), then the serializer counters.
func summary(level rmi.OptLevel, s stats.Snapshot) string {
	calls := fmt.Sprintf("%d RMIs over TCP", s.RemoteRPCs)
	switch {
	case s.RemoteRPCs == 0:
		calls = fmt.Sprintf("%d local RMIs", s.LocalRPCs)
	case s.LocalRPCs != 0:
		calls += fmt.Sprintf(" + %d local", s.LocalRPCs)
	}
	return fmt.Sprintf("%-22s %s  wire=%6d B  serCalls=%4d  cycleLookups=%4d  reused=%4d",
		level, calls, s.WireBytes, s.SerializerCalls, s.CycleLookups, s.ReusedObjs)
}

// smokeObs validates the observability surface end to end: liveness,
// Prometheus exposition with the expected series, live per-call-site
// counters on /callsites, build provenance on /buildinfo, the
// attribution and trace documents, and every Chrome-trace body.
func smokeObs(base string, sends int64) error {
	get := func(path string) (string, error) {
		resp, err := http.Get(base + path)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return "", err
		}
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body), nil
	}

	body, err := get("/healthz")
	if err != nil {
		return err
	}
	if !strings.Contains(body, "ok") {
		return fmt.Errorf("/healthz said %q", body)
	}

	body, err = get("/metrics")
	if err != nil {
		return err
	}
	for _, series := range []string{
		"cormi_trace_spans_started_total",
		"cormi_wire_buf_outstanding",
		"cormi_serial_readctx_outstanding",
		"cormi_phase_latency_ns_bucket",
		"cormi_pending_calls",
		"cormi_trace_store_retained",
		`cormi_site_calls{site="Main.main.1"}`,
		`cormi_site_wire_bytes{site="Main.main.1"}`,
		`cormi_link_negotiated_version{from="0",to="1"}`,
		`cormi_link_refused_calls{from="0",to="1"}`,
	} {
		if !strings.Contains(body, series) {
			return fmt.Errorf("/metrics missing series %s", series)
		}
	}

	body, err = get("/callsites")
	if err != nil {
		return err
	}
	var sites []stats.SiteStat
	if err := json.Unmarshal([]byte(body), &sites); err != nil {
		return fmt.Errorf("/callsites is not valid JSON: %w", err)
	}
	if len(sites) == 0 {
		return fmt.Errorf("/callsites empty after the run")
	}
	var main *stats.SiteStat
	for i := range sites {
		if sites[i].Site == "Main.main.1" {
			main = &sites[i]
		}
	}
	if main == nil {
		return fmt.Errorf("/callsites missing Main.main.1: %s", body)
	}
	// All five optimization levels drove the same textual site.
	if want := sends * int64(len(rmi.AllLevels)); main.Calls != want {
		return fmt.Errorf("/callsites Main.main.1 calls = %d, want %d", main.Calls, want)
	}
	if main.WireBytes <= 0 {
		return fmt.Errorf("/callsites Main.main.1 wire_bytes = %d, want > 0", main.WireBytes)
	}

	body, err = get("/links")
	if err != nil {
		return err
	}
	var links []stats.LinkStat
	if err := json.Unmarshal([]byte(body), &links); err != nil {
		return fmt.Errorf("/links is not valid JSON: %w", err)
	}
	if len(links) == 0 {
		return fmt.Errorf("/links empty after the run")
	}
	for _, l := range links {
		if l.Version < 1 {
			return fmt.Errorf("/links %d->%d negotiated version %d", l.From, l.To, l.Version)
		}
		if l.Refused != 0 {
			return fmt.Errorf("/links %d->%d refused %d calls between nodes of one program", l.From, l.To, l.Refused)
		}
	}

	body, err = get("/buildinfo")
	if err != nil {
		return err
	}
	var bi struct {
		GoVersion string `json:"go_version"`
	}
	if err := json.Unmarshal([]byte(body), &bi); err != nil {
		return fmt.Errorf("/buildinfo is not valid JSON: %w", err)
	}
	if bi.GoVersion == "" {
		return fmt.Errorf("/buildinfo missing go_version: %s", body)
	}

	if err := checkChrome(get, "/trace"); err != nil {
		return err
	}

	body, err = get("/snapshot")
	if err != nil {
		return err
	}
	var snap obs.NodeSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		return fmt.Errorf("/snapshot is not valid JSON: %w", err)
	}
	if snap.Version != obs.SnapshotVersion {
		return fmt.Errorf("/snapshot version %d, want %d", snap.Version, obs.SnapshotVersion)
	}
	var attributed bool
	for _, sa := range snap.Sites {
		if phase, _ := sa.TopBlame(); sa.Site == "Main.main.1" && sa.Calls > 0 && phase != "" {
			attributed = true
		}
	}
	if !attributed {
		return fmt.Errorf("/snapshot missing Main.main.1 attribution: %s", body)
	}

	body, err = get("/cluster")
	if err != nil {
		return err
	}
	var cv obs.ClusterView
	if err := json.Unmarshal([]byte(body), &cv); err != nil {
		return fmt.Errorf("/cluster is not valid JSON: %w", err)
	}
	if cv.Version != obs.SnapshotVersion || len(cv.Nodes) == 0 {
		return fmt.Errorf("/cluster document malformed: %s", body)
	}
	var clustered bool
	for _, row := range cv.Sites {
		if row.Site == "Main.main.1" && row.Calls == uint64(sends)*int64Len(rmi.AllLevels) &&
			row.P50NS > 0 && row.TopBlame != "" {
			clustered = true
		}
	}
	if !clustered {
		return fmt.Errorf("/cluster missing a merged Main.main.1 row with quantiles and blame: %s", body)
	}

	// Distributed tracing: head sampling is armed by default, so the
	// run must have retained at least one trace, and its merged tree
	// (single node here, but through the same pull path rmitop uses)
	// must reconstruct with spans and a root.
	body, err = get("/traces")
	if err != nil {
		return err
	}
	var tl obs.TraceList
	if err := json.Unmarshal([]byte(body), &tl); err != nil {
		return fmt.Errorf("/traces is not valid JSON: %w", err)
	}
	if tl.Version != obs.TracesVersion {
		return fmt.Errorf("/traces version %d, want %d", tl.Version, obs.TracesVersion)
	}
	if len(tl.Traces) == 0 {
		return fmt.Errorf("/traces empty with sampling armed")
	}
	body, err = get(fmt.Sprintf("/traces/%d?merge=1", tl.Traces[0].TraceID))
	if err != nil {
		return err
	}
	var tv obs.TraceView
	if err := json.Unmarshal([]byte(body), &tv); err != nil {
		return fmt.Errorf("/traces/<id> is not valid JSON: %w", err)
	}
	if tv.Version != obs.TracesVersion || tv.Tree == nil {
		return fmt.Errorf("/traces/<id> document malformed: %s", body)
	}
	if len(tv.Tree.Spans) == 0 || len(tv.Tree.Roots) == 0 {
		return fmt.Errorf("/traces/<id> tree empty for a retained trace: %s", body)
	}
	return checkChrome(get, fmt.Sprintf("/traces/%d?merge=1&format=chrome", tl.Traces[0].TraceID))
}

// checkChrome fetches one Chrome-trace body and checks that it is
// valid JSON with at least one complete event, a process_name for
// every process id, and no event before the epoch.
func checkChrome(get func(string) (string, error), path string) error {
	body, err := get(path)
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			PID  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		return fmt.Errorf("%s is not valid Chrome-trace JSON: %w", path, err)
	}
	named := map[int]bool{}
	for _, e := range doc.TraceEvents {
		if e.Name == "process_name" {
			named[e.PID] = true
		}
	}
	complete := 0
	for _, e := range doc.TraceEvents {
		if !named[e.PID] {
			return fmt.Errorf("%s: pid %d has no process_name", path, e.PID)
		}
		if e.TS < 0 {
			return fmt.Errorf("%s: %s at ts=%g, before the epoch", path, e.Name, e.TS)
		}
		if e.Ph == "X" {
			complete++
		}
	}
	if complete == 0 {
		return fmt.Errorf("%s has no complete (X) events", path)
	}
	return nil
}

// int64Len is len() as uint64 for call-count arithmetic.
func int64Len[T any](s []T) uint64 { return uint64(len(s)) }

func fail(err error) {
	fmt.Fprintf(os.Stderr, "rminode: %v\n", err)
	os.Exit(1)
}
