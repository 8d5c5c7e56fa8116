package harness

// Cluster-wide tail-latency attribution scenario: N independent nodes
// (each its own RMI cluster, tracer, and obs server on a loopback
// port), all serving the same call site, one of them with a slow
// executor whose trailing calls spike past the site's adaptive p99
// threshold. The aggregation runs the production path end to end — one
// node's /cluster endpoint pulls every peer's /snapshot over real HTTP
// and merges them — so the returned rows are exactly what rmitop
// renders, and the scenario is the acceptance check for DESIGN.md §14:
// merged quantiles, blame shifted to execute, and at least one
// captured exemplar.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"cormi/internal/model"
	"cormi/internal/obs"
	"cormi/internal/rmi"
	"cormi/internal/serial"
	"cormi/internal/trace"
)

// attribSite is the call site every node of the scenario serves.
const attribSite = "Attrib.echo.1"

// AttribSpec sizes the attribution scenario. Zero fields take the
// defaults of DefaultAttribSpec.
type AttribSpec struct {
	// Nodes is the number of independent obs nodes (>= 3 exercises a
	// real multi-peer merge).
	Nodes int
	// Sends is the number of calls each node issues to its own service.
	Sends int
	// SlowNode is the index of the node whose executor sleeps SlowDelay
	// per call (clamped into range).
	SlowNode int
	// SlowDelay is the slow node's per-call executor sleep; its
	// trailing Spikes calls sleep 10x, guaranteeing capture once the
	// warmup has armed the threshold at the 1x level.
	SlowDelay time.Duration
	// Spikes is the number of trailing 10x-slow calls on the slow node.
	Spikes int
	// Warmup is the per-site exemplar warmup (calls before the adaptive
	// threshold arms); must be below Sends-Spikes so the spikes land on
	// an armed threshold.
	Warmup int64
}

// DefaultAttribSpec keeps the scenario under ~200ms of wall time.
func DefaultAttribSpec() AttribSpec {
	return AttribSpec{Nodes: 3, Sends: 24, SlowNode: 2, SlowDelay: time.Millisecond, Spikes: 2, Warmup: 8}
}

func (s AttribSpec) withDefaults() AttribSpec {
	d := DefaultAttribSpec()
	if s.Nodes <= 0 {
		s.Nodes = d.Nodes
	}
	if s.Sends <= 0 {
		s.Sends = d.Sends
	}
	if s.SlowDelay <= 0 {
		s.SlowDelay = d.SlowDelay
	}
	if s.Spikes <= 0 {
		s.Spikes = d.Spikes
	}
	if s.Warmup <= 0 {
		s.Warmup = d.Warmup
	}
	if s.SlowNode < 0 || s.SlowNode >= s.Nodes {
		s.SlowNode = s.Nodes - 1
	}
	return s
}

// AttribRow is one site's cluster-wide attribution summary.
type AttribRow struct {
	Site          string
	Calls         uint64
	P50NS         int64
	P95NS         int64
	P99NS         int64
	TopBlame      string
	TopBlameShare float64
	Exemplars     int64
}

// RunAttrib drives the scenario and returns the merged per-site rows
// as served by the aggregating node's /cluster endpoint.
func RunAttrib(spec AttribSpec) ([]AttribRow, error) {
	spec = spec.withDefaults()

	servers := make([]*obs.Server, 0, spec.Nodes)
	defer func() {
		for _, s := range servers {
			_ = s.Close()
		}
	}()
	addrs := make([]string, 0, spec.Nodes)
	for i := 0; i < spec.Nodes; i++ {
		tr := trace.New(trace.Config{
			RingSize:       256,
			ExemplarWarmup: spec.Warmup,
		})
		c := rmi.New(2, rmi.WithTracer(tr))
		defer c.Close()
		srv, err := obs.Serve("127.0.0.1:0", obs.Options{
			Tracer:   tr,
			Counters: c.Counters,
			NodeName: fmt.Sprintf("n%d", i),
			Overload: c.Overload,
		})
		if err != nil {
			return nil, fmt.Errorf("harness: attrib obs node %d: %w", i, err)
		}
		servers = append(servers, srv)
		addrs = append(addrs, srv.Addr())

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
	url := "http://" + addrs[0] + "/cluster?peers=" + strings.Join(addrs[1:], ",")
	resp, err := http.Get(url)
	if err != nil {
		return nil, fmt.Errorf("harness: attrib aggregate: %w", err)
	}
	defer resp.Body.Close()
	var cv obs.ClusterView
	if err := json.NewDecoder(resp.Body).Decode(&cv); err != nil {
		return nil, fmt.Errorf("harness: attrib aggregate decode: %w", err)
	}
	if cv.Version != obs.SnapshotVersion {
		return nil, fmt.Errorf("harness: attrib cluster version %d, want %d", cv.Version, obs.SnapshotVersion)
	}
	if len(cv.Errors) > 0 {
		return nil, fmt.Errorf("harness: attrib peers unreachable: %v", cv.Errors)
	}
	if len(cv.Nodes) != spec.Nodes {
		return nil, fmt.Errorf("harness: attrib merged %d nodes, want %d", len(cv.Nodes), spec.Nodes)
	}
	rows := make([]AttribRow, 0, len(cv.Sites))
	for _, s := range cv.Sites {
		rows = append(rows, AttribRow{
			Site: s.Site, Calls: s.Calls,
			P50NS: s.P50NS, P95NS: s.P95NS, P99NS: s.P99NS,
			TopBlame: s.TopBlame, TopBlameShare: s.TopBlameShare,
			Exemplars: s.Exemplars,
		})
	}
	return rows, nil
}

// attribLoad runs one node's share of the workload: Sends echo calls,
// the executor sleeping delay each — and, on the slow node, 10x delay
// for the trailing Spikes calls so they cross the armed threshold.
func attribLoad(c *rmi.Cluster, spec AttribSpec, delay time.Duration) error {
	ref := c.Node(1).Export(&rmi.Service{
		Name: "Attrib",
		Methods: map[string]rmi.Method{
			"echo": func(call *rmi.Call, args []model.Value) []model.Value {
				if d := time.Duration(args[1].I); d > 0 {
					time.Sleep(d)
				}
				return []model.Value{args[0]}
			},
		},
	})
	cs, err := c.NewCallSite(rmi.LevelSite, rmi.SiteSpec{
		Name: attribSite, Method: "echo",
		ArgPlans: []*serial.Plan{
			serial.PrimitivePlan(attribSite, model.FInt),
			serial.PrimitivePlan(attribSite, model.FInt),
		},
		RetPlans: []*serial.Plan{serial.PrimitivePlan(attribSite, model.FInt)},
		NumRet:   1,
	})
	if err != nil {
		return err
	}
	for i := 0; i < spec.Sends; i++ {
		d := delay
		if delay > 0 && i >= spec.Sends-spec.Spikes {
			d = 10 * delay
		}
		vals, err := cs.Invoke(c.Node(0), ref, []model.Value{model.Int(int64(i)), model.Int(int64(d))})
		if err != nil {
			return err
		}
		if vals[0].I != int64(i) {
			return fmt.Errorf("echo(%d) = %d", i, vals[0].I)
		}
	}
	return nil
}

// FormatAttrib renders attribution rows as an aligned summary table.
func FormatAttrib(rows []AttribRow) string {
	if len(rows) == 0 {
		return "no attribution rows\n"
	}
	var b []byte
	b = fmt.Appendf(b, "%-28s %8s %10s %10s %10s %-14s %6s %9s\n",
		"site", "calls", "p50_ns", "p95_ns", "p99_ns", "top_blame", "share", "exemplars")
	for _, r := range rows {
		b = fmt.Appendf(b, "%-28s %8d %10d %10d %10d %-14s %5.0f%% %9d\n",
			r.Site, r.Calls, r.P50NS, r.P95NS, r.P99NS, r.TopBlame, 100*r.TopBlameShare, r.Exemplars)
	}
	return string(b)
}
