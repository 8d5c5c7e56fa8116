package harness

// Distributed-tracing scenario (DESIGN.md §15): three nodes with a
// tracer each (separate trace stores, as three machines would have),
// synchronous chains from node 0 through a stepping service on node 1
// whose executor makes a nested call to a leaf service on node 2, so
// each link is one head-sampled trace scattered across three stores.
// The verification runs the production pull path — node 0's /traces
// lists the traces, /traces/<id>?peers=... pulls every peer's spans
// over real HTTP and reconstructs the cross-node tree — and the row
// says whether the reconstruction is whole (TreeFacts).

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"cormi/internal/model"
	"cormi/internal/obs"
	"cormi/internal/rmi"
	"cormi/internal/trace"
)

// DTraceSpec sizes the distributed-tracing scenario: Chains synchronous
// chains of Depth calls, each call one trace; the step executor sleeps
// StepDelay per call and the leaf LeafDelay — real sleeps, so the
// reconstructed critical path is comparable against measured wall time.
type DTraceSpec struct {
	Depth, Chains        int
	StepDelay, LeafDelay time.Duration
}

// DefaultDTraceSpec keeps the scenario around ~30ms of wall time while
// keeping the sleeps large enough to dominate per-call overhead, so
// the critical-path-vs-wall ratio is stable.
func DefaultDTraceSpec() DTraceSpec {
	return DTraceSpec{Depth: 8, Chains: 3, StepDelay: time.Millisecond, LeafDelay: 200 * time.Microsecond}
}

// TreeFacts is what the tracing scenario reports of its reconstructed
// trees. The structural facts are the same for every trace by
// construction, so asserted, not averaged: Traces is how many node 0's
// /traces listed (want Chains*Depth), SpansPerTrace the largest tree
// (want 4: caller+callee for step and leaf), Roots the most roots in a
// tree (want 1), MaxHop the deepest hop (want 2: node0 -> node1 ->
// node2), Orphans and Duplicates summed. The timing facts are
// per-chain means: the summed critical paths of its links' trees, their
// summed root-to-last-span extents, the wall time the caller measured.
// A chain's cost is real executor sleeps, so a whole reconstruction
// accounts for nearly all of it: CriticalPathRatio = CriticalPathNS /
// WallNS is near 1.
type TreeFacts struct {
	Traces, SpansPerTrace, Roots, MaxHop, Orphans, Duplicates int
	CriticalPathNS, EndToEndNS, WallNS                        int64
	CriticalPathRatio                                         float64
}

// serveNodes starts one obs server per entry on a loopback port, named
// n0, n1, …: the N-node bring-up the tracing and attribution scenarios
// share. It returns the servers' addresses and what stops them.
func serveNodes(nodes []obs.Options) (addrs []string, stop func(), err error) {
	stop = func() {}
	for i, opts := range nodes {
		opts.NodeName = fmt.Sprintf("n%d", i)
		srv, err := obs.Serve("127.0.0.1:0", opts)
		if err != nil {
			stop()
			return nil, nil, fmt.Errorf("obs node %d: %w", i, err)
		}
		rest := stop
		stop = func() { _ = srv.Close(); rest() }
		addrs = append(addrs, srv.Addr())
	}
	return addrs, stop, nil
}

// RunDTrace drives the scenario as the one cell of its own table (fixed
// topology: no level or condition reaches it), printed by `-chain`.
func RunDTrace(spec DTraceSpec) (*Report, error) {
	rep := &Report{Cols: []Column[Row]{
		depthCol, chainsCol,
		{"spans", 7, "%d", func(r *Row) any { return r.SpansPerTrace }},
		{"roots", 6, "%d", func(r *Row) any { return r.Roots }},
		{"maxhop", 6, "%d", func(r *Row) any { return r.MaxHop }},
		{"orphans", 8, "%d", func(r *Row) any { return r.Orphans }},
		{"critical_path_ns", 17, "%d", func(r *Row) any { return r.CriticalPathNS }},
		{"end_to_end_ns", 14, "%d", func(r *Row) any { return r.EndToEndNS }},
		{"wall_ns", 11, "%d", func(r *Row) any { return r.WallNS }},
		{"ratio", 6, "%.2f", func(r *Row) any { return r.CriticalPathRatio }},
	}}
	w := Workload{Name: "DTrace", Mode: ChainSync, Run: func(rmi.OptLevel, Scale, []rmi.Option) (Outcome, error) {
		return runDTrace(spec)
	}}
	return rep, runGrid(rep, Scale{Nodes: 3}, []Workload{w}, []Condition{Clean}, []rmi.OptLevel{rmi.LevelSite})
}

func runDTrace(spec DTraceSpec) (Outcome, error) {
	out := Outcome{Depth: spec.Depth, Chains: spec.Chains}
	if spec.Depth > trace.MaxTraces {
		return out, fmt.Errorf("depth %d: one chain samples more traces than a trace store retains (%d)", spec.Depth, trace.MaxTraces)
	}
	// Three tracers for three nodes: node 0 head-samples every root
	// call it originates; nodes 1 and 2 never originate roots — they
	// record spans for whatever sampled context arrives on the wire.
	var tracers [3]*trace.Tracer
	var copts []rmi.Option
	for i := range tracers {
		var cfg trace.Config
		if i == 0 {
			cfg.SampleEvery = 1
		}
		tracers[i] = trace.New(cfg)
		copts = append(copts, rmi.WithNodeTracer(i, tracers[i]))
	}
	c := rmi.New(3, copts...)
	defer c.Close()
	out.pending = c.PendingCalls
	var nodes []obs.Options
	for _, tr := range tracers {
		nodes = append(nodes, obs.Options{Tracer: tr, Cluster: c})
	}
	addrs, stop, err := serveNodes(nodes)
	if err != nil {
		return out, err
	}
	defer stop()

	leafCS := stepSite(c, rmi.LevelSite, "DTrace.leaf.1", "leaf")
	leafRef := export(c, 2, "DTraceLeaf", "leaf", func(*rmi.Call) { time.Sleep(spec.LeafDelay) }, increment)
	stepCS := stepSite(c, rmi.LevelSite, "DTrace.step.1", "step")
	// step(x) = leaf(x) forwarded through a nested same-trace call:
	// issued from the executing call, it inherits that call's trace
	// context, so the leaf spans join the chain's tree at hop 2.
	var nestedErr error
	stepRef := c.Node(1).Export(&rmi.Service{Name: "DTraceStep", Methods: map[string]rmi.Method{
		"step": func(call *rmi.Call, args []model.Value) []model.Value {
			time.Sleep(spec.StepDelay)
			vals, err := leafCS.Invoke(call, leafRef, []model.Value{args[0]})
			if err != nil {
				nestedErr = err
				return []model.Value{model.Int(-1)}
			}
			return vals
		},
	}})

	// The chains run strictly one after another, so a chain's mean wall
	// time is the summed drive time over the number of chains. Each
	// chain is verified as soon as it completes, over the production
	// pull path: node 0's /traces lists what it sampled, and each
	// /traces/<id>?peers=... reconstructs the cross-node tree from all
	// three stores over real HTTP. A chain's traces are then the newest
	// in every store, so the whole run may sample more than a store
	// retains.
	peerQ := strings.Join(addrs[1:], ",")
	seen := make(map[uint64]bool, spec.Chains*spec.Depth)
	var wall time.Duration
	for it := 0; it < spec.Chains; it++ {
		start := time.Now()
		got, err := driveChains(stepCS, c.Node(0), stepRef, ChainSync, spec.Depth, []model.Value{model.Int(int64(it))})
		wall += time.Since(start)
		if err == nil && nestedErr != nil {
			err = fmt.Errorf("nested leaf call: %w", nestedErr)
		}
		if want := int64(it + spec.Depth); err == nil && got[0].I != want {
			err = fmt.Errorf("got %d, want %d", got[0].I, want)
		}
		if err != nil {
			return out, fmt.Errorf("dtrace chain %d: %w", it, err)
		}

		list, err := obs.Get[obs.TraceList](http.DefaultClient, addrs[0], "/traces")
		if err != nil {
			return out, err
		}
		fresh := 0
		for _, ts := range list.Traces {
			if seen[ts.TraceID] {
				continue
			}
			seen[ts.TraceID] = true
			fresh++
			view, err := obs.Get[obs.TraceView](http.DefaultClient, addrs[0], fmt.Sprintf("/traces/%d?peers=%s", ts.TraceID, peerQ))
			if err != nil {
				return out, err
			}
			tree := view.Tree
			if len(view.Errors) > 0 || tree == nil {
				return out, fmt.Errorf("trace %#x: no tree, or peers unreachable: %v", ts.TraceID, view.Errors)
			}
			out.SpansPerTrace = max(out.SpansPerTrace, len(tree.Spans))
			out.Roots = max(out.Roots, len(tree.Roots))
			out.MaxHop = max(out.MaxHop, int(tree.MaxHop))
			out.Orphans += tree.Orphans
			out.Duplicates += tree.Duplicates
			out.CriticalPathNS += tree.CriticalPathNS / int64(spec.Chains)
			out.EndToEndNS += tree.EndToEndNS / int64(spec.Chains)
		}
		if out.Traces += fresh; fresh != spec.Depth {
			return out, fmt.Errorf("chain %d sampled %d traces, want %d", it, fresh, spec.Depth)
		}
	}
	out.WallNS = wall.Nanoseconds() / int64(spec.Chains)
	out.CriticalPathRatio = float64(out.CriticalPathNS) / float64(out.WallNS)
	return out, nil
}
