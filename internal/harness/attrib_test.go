package harness

// Cluster-wide tail-latency attribution scenario (DESIGN.md §14): N
// independent nodes (each its own RMI cluster, tracer and obs server),
// all serving the same call site, one of them with a slow executor.
// The aggregation runs the production path — one node's /cluster pulls
// every peer's /snapshot over real HTTP and merges them — so the rows
// are what rmitop renders: merged quantiles and blame shifted to
// execute, read from the merged phase histograms.

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"cormi/internal/model"
	"cormi/internal/obs"
	"cormi/internal/rmi"
	"cormi/internal/trace"
)

// The acceptance scenario for cluster-wide attribution: three nodes,
// one slow executor, aggregated over real HTTP. The merged row must
// carry every node's calls, monotone quantiles, and blame shifted to
// execute by the slow node.
func TestRunAttribBlamesSlowExecutor(t *testing.T) {
	spec := attribSpec{Nodes: 3, Sends: 16, SlowNode: 2, SlowDelay: time.Millisecond}
	rows, err := runAttrib(spec)
	if err != nil {
		t.Fatal(err)
	}
	var row *obs.ClusterSite
	for i := range rows {
		if rows[i].Site == attribSite {
			row = &rows[i]
		}
	}
	if row == nil {
		t.Fatalf("no %s row in %+v", attribSite, rows)
	}
	if want := uint64(spec.Nodes * spec.Sends); row.Calls != want {
		t.Errorf("merged calls = %d, want %d", row.Calls, want)
	}
	if row.P50NS <= 0 || row.P50NS > row.P95NS || row.P95NS > row.P99NS {
		t.Errorf("quantiles not monotone: p50=%d p95=%d p99=%d", row.P50NS, row.P95NS, row.P99NS)
	}
	// A third of the calls sleep, which puts the cluster p99 at sleep
	// scale.
	if row.P99NS < int64(spec.SlowDelay) {
		t.Errorf("cluster p99 = %dns, below the slow executor's %v sleep", row.P99NS, spec.SlowDelay)
	}
	if row.TopBlame != "execute" {
		t.Errorf("top blame = %q (share %.2f), want execute", row.TopBlame, row.TopBlameShare)
	}
	if row.TopBlameShare <= 0.5 {
		t.Errorf("execute blame share = %.2f, want dominant (> 0.5)", row.TopBlameShare)
	}

	out := formatAttrib(rows)
	t.Logf("merged attribution table:\n%s", out)
	for _, want := range []string{attribSite, "top_blame", "execute"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatAttrib missing %q:\n%s", want, out)
		}
	}
}

// attribSite is the call site every node of the scenario serves.
const attribSite = "Attrib.echo.1"

// attribSpec sizes the attribution scenario: Nodes independent obs
// nodes (>= 3 exercises a real multi-peer merge) issue Sends calls each
// to their own service; node SlowNode's executor sleeps SlowDelay per
// call.
type attribSpec struct {
	Nodes, Sends, SlowNode int
	SlowDelay              time.Duration
}

// runAttrib drives the scenario and returns the merged per-site rows
// as served by the aggregating node's /cluster endpoint.
func runAttrib(spec attribSpec) ([]obs.ClusterSite, error) {
	clusters := make([]*rmi.Cluster, spec.Nodes)
	nodes := make([]obs.Options, spec.Nodes)
	for i := range clusters {
		tr := trace.New(trace.Config{RingSize: 256})
		c := rmi.New(2, rmi.WithTracer(tr))
		defer c.Close()
		clusters[i], nodes[i] = c, obs.Options{Tracer: tr, Counters: c.Counters, Overload: c.Overload}
	}
	addrs, stop, err := serveNodes(nodes)
	if err != nil {
		return nil, err
	}
	defer stop()
	for i, c := range clusters {
		delay := time.Duration(0)
		if i == spec.SlowNode {
			delay = spec.SlowDelay
		}
		if err := attribLoad(c, spec, delay); err != nil {
			return nil, fmt.Errorf("harness: attrib node %d: %w", i, err)
		}
	}

	// Aggregate through node 0's /cluster endpoint — the production
	// pull path, not an in-process merge.
	cv, err := obs.Get[obs.ClusterView](http.DefaultClient, addrs[0], "/cluster?peers="+strings.Join(addrs[1:], ","))
	if err != nil {
		return nil, fmt.Errorf("harness: attrib aggregate: %w", err)
	}
	if len(cv.Errors) > 0 {
		return nil, fmt.Errorf("harness: attrib peers unreachable: %v", cv.Errors)
	}
	if len(cv.Nodes) != spec.Nodes {
		return nil, fmt.Errorf("harness: attrib merged %d nodes, want %d", len(cv.Nodes), spec.Nodes)
	}
	return cv.Sites, nil
}

// attribLoad runs one node's share of the workload: Sends calls of the
// int step service, one at a time, the executor sleeping delay each.
func attribLoad(c *rmi.Cluster, spec attribSpec, delay time.Duration) error {
	ref := export(c, 1, "Attrib", "echo", func(*rmi.Call) { time.Sleep(delay) }, increment)
	cs := stepSite(c, rmi.LevelSite, attribSite, "echo")
	_, err := driveChains(cs, c.Node(0), ref, ChainSync, 1, make([]model.Value, spec.Sends))
	return err
}

// formatAttrib renders attribution rows as an aligned summary table.
func formatAttrib(rows []obs.ClusterSite) string {
	return Render([]Column[obs.ClusterSite]{
		{"site", -28, "%s", func(r *obs.ClusterSite) any { return r.Site }},
		{"calls", 8, "%d", func(r *obs.ClusterSite) any { return r.Calls }},
		{"p50_ns", 10, "%d", func(r *obs.ClusterSite) any { return r.P50NS }},
		{"p95_ns", 10, "%d", func(r *obs.ClusterSite) any { return r.P95NS }},
		{"p99_ns", 10, "%d", func(r *obs.ClusterSite) any { return r.P99NS }},
		{"top_blame", -14, "%s", func(r *obs.ClusterSite) any { return r.TopBlame }},
		{"share", 6, "%.0f%%", func(r *obs.ClusterSite) any { return 100 * r.TopBlameShare }},
	}, rows)
}
