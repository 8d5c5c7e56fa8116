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
// README's endpoint table while it runs, and after the run until it is
// interrupted (SIGINT or SIGTERM), so rmitop and curl can read the
// finished run. -obs-smoke instead probes them from inside the process
// after the run and exits nonzero if any is broken (the `make
// obs-smoke` gate, no curl needed).
//
// Usage:
//
//	rminode [-nodes 2] [-sends 50]
//	rminode -drop 0.1 -dup 0.05        # chaos over real TCP
//	rminode -obs :9090                 # serve the endpoint table until ^C
//	rminode -obs-smoke                 # self-check the obs endpoints
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
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

func main() { os.Exit(run(os.Args[1:], interrupted, os.Stdout, os.Stderr)) }

// interrupted delivers the first SIGINT or SIGTERM that arrives after
// it is called; until then a signal ends the process as usual.
func interrupted() <-chan os.Signal {
	c := make(chan os.Signal, 1)
	signal.Notify(c, os.Interrupt, syscall.SIGTERM)
	return c
}

// run is main minus the process exit, so tests can drive it: it
// returns the exit code (0 clean, 1 failure, 2 usage). With -obs and
// no -obs-smoke it keeps serving the endpoints after the run until the
// channel stop returns delivers (main: SIGINT or SIGTERM).
func run(args []string, stop func() <-chan os.Signal, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rminode", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nodes := fs.Int("nodes", 2, "cluster size")
	sends := fs.Int("sends", 50, "RMIs per optimization level")
	drop := fs.Float64("drop", 0, "packet drop probability")
	dup := fs.Float64("dup", 0, "packet duplication probability")
	reorder := fs.Float64("reorder", 0, "packet reordering probability")
	corrupt := fs.Float64("corrupt", 0, "payload corruption probability")
	seed := fs.Int64("seed", 42, "fault injection seed")
	obsAddr := fs.String("obs", "", "serve the observability endpoints (README's endpoint table) on this address, e.g. :9090")
	obsSmoke := fs.Bool("obs-smoke", false, "probe the -obs endpoints after the run and exit nonzero on failure")
	obsName := fs.String("obs-name", "rminode", "node name in /snapshot and /cluster documents")
	obsPeers := fs.String("obs-peers", "", "comma-separated peer obs addresses that /cluster merges by default")
	sample := fs.Int("sample", 64, "with -obs: head-sample every Nth root call into the distributed trace store (/traces; 0 disables)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *nodes < 1 {
		fmt.Fprintf(stderr, "rminode: -nodes must be at least 1, got %d\n", *nodes)
		return 2
	}
	if *obsSmoke && *nodes < 2 {
		fmt.Fprintf(stderr, "rminode: -obs-smoke needs -nodes 2 or more, got %d: one node's calls are all local, so no phase histogram, link series or trace exists to probe\n", *nodes)
		return 2
	}

	faultCfg := transport.FaultConfig{
		Seed: *seed,
		FaultRates: transport.FaultRates{
			Drop: *drop, Dup: *dup, Reorder: *reorder, Corrupt: *corrupt,
		},
	}

	// One node set, one cluster for the whole run: the five levels are
	// five call sites on it, and each level's line is the counters'
	// delta over that level's calls.
	nw, err := transport.NewTCPNetworkLocal(*nodes)
	if err != nil {
		return fail(stderr, err)
	}
	opts := []rmi.Option{rmi.WithNetwork(nw)}
	var tracer *trace.Tracer
	if *obsSmoke && *obsAddr == "" {
		*obsAddr = "127.0.0.1:0"
	}
	if *obsAddr != "" {
		tracer = trace.New(trace.Config{SampleEvery: int64(*sample)})
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
	defer cluster.Close()

	var server *obs.Server
	if *obsAddr != "" {
		var peers []string
		for _, p := range strings.Split(*obsPeers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
		server, err = obs.Serve(*obsAddr, obs.Options{
			Tracer: tracer, Cluster: cluster, NodeName: *obsName, Peers: peers,
		})
		if err != nil {
			return fail(stderr, err)
		}
		defer server.Close()
		fmt.Fprintf(stdout, "observability endpoints on http://%s (README's endpoint table)\n", server.Addr())
	}

	res, err := core.CompileInto(src, cluster.Registry)
	if err != nil {
		return fail(stderr, err)
	}
	si := res.SiteByName("Main.main.1")
	if si == nil {
		return fail(stderr, fmt.Errorf("call site missing"))
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

	prev := cluster.Counters.Snapshot()
	for _, level := range rmi.AllLevels {
		cs, err := appkit.Register(cluster, level, si)
		if err != nil {
			return fail(stderr, err)
		}
		for i := 0; i < *sends; i++ {
			rets, err := cs.Invoke(cluster.Node(0), ref, []model.Value{model.Ref(vec)})
			if err != nil {
				return fail(stderr, err)
			}
			if rets[0].D != want {
				return fail(stderr, fmt.Errorf("sum over TCP = %g, want %g", rets[0].D, want))
			}
		}
		now := cluster.Counters.Snapshot()
		s := now.Sub(prev)
		prev = now
		fmt.Fprint(stdout, summary(level, s))
		if faultCfg.Enabled() {
			fmt.Fprintf(stdout, "  retries=%d dup-suppr=%d corrupt-drop=%d", s.Retries, s.DupSuppressed, s.CorruptDropped)
		}
		fmt.Fprintln(stdout)
	}

	if *obsSmoke {
		if err := smokeObs("http://"+server.Addr(), int64(*sends)); err != nil {
			return fail(stderr, fmt.Errorf("obs smoke: %w", err))
		}
		fmt.Fprintln(stdout, "obs smoke OK: /metrics, /snapshot, /cluster, /traces and /traces/<id> served valid documents; /trace and /traces/<id>?format=chrome valid Chrome traces")
	} else if server != nil {
		stopped := stop()
		fmt.Fprintf(stdout, "serving http://%s until interrupted\n", server.Addr())
		<-stopped
	}
	return 0
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

// smokeObs validates the observability surface end to end: the
// Prometheus exposition with the expected series and the run's numbers
// on it, the attribution and trace documents, and every Chrome-trace
// body.
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

	body, err := get("/metrics")
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
		`cormi_link_refused_calls{from="0",to="1"}`,
	} {
		if !strings.Contains(body, series) {
			return fmt.Errorf("/metrics missing series %s", series)
		}
	}
	// All five optimization levels drove the same textual site, and
	// every call of the run was remote.
	calls := float64(sends * int64(len(rmi.AllLevels)))
	for _, c := range []struct{ family, labels string }{
		{"cormi_site_calls", `site="Main.main.1"`},
		{"cormi_counter_remote_rpcs", ""},
	} {
		if got, ok := samples(body, c.family)[c.labels]; !ok || got != calls {
			return fmt.Errorf("/metrics %s{%s} = %g (present %v), want %g", c.family, c.labels, got, ok, calls)
		}
	}
	if got := samples(body, "cormi_site_wire_bytes")[`site="Main.main.1"`]; got <= 0 {
		return fmt.Errorf(`/metrics cormi_site_wire_bytes{site="Main.main.1"} = %g, want > 0`, got)
	}
	for labels, refused := range samples(body, "cormi_link_refused_calls") {
		if refused != 0 {
			return fmt.Errorf("/metrics cormi_link_refused_calls{%s} = %g between nodes of one program", labels, refused)
		}
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

// samples returns the values of one family's samples in a Prometheus
// text body, keyed by label set ("" for a sample without labels).
func samples(body, family string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, family)
		if !ok {
			continue
		}
		var labels string
		if l, r, ok := strings.Cut(rest, "} "); ok && strings.HasPrefix(l, "{") {
			labels, rest = l[1:], r
		} else if r, ok := strings.CutPrefix(rest, " "); ok {
			rest = r
		} else {
			continue // another family sharing the prefix
		}
		if v, err := strconv.ParseFloat(rest, 64); err == nil {
			out[labels] = v
		}
	}
	return out
}

// int64Len is len() as uint64 for call-count arithmetic.
func int64Len[T any](s []T) uint64 { return uint64(len(s)) }

// fail reports err and returns the failure exit code.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "rminode: %v\n", err)
	return 1
}
