package harness

// Distributed-tracing scenario (DESIGN.md §15): one cluster, three
// nodes with a tracer each (per-node trace stores, as three real
// machines would have), pipelined dependent chains from node 0 through
// a stepping service on node 1 whose executor makes a nested call to a
// leaf service on node 2. Every hop carries the wire trace context, so
// each chain becomes one head-sampled trace scattered across three
// stores. The verification runs the production pull path end to end —
// node 0's /traces lists the sampled traces, /traces/<id>?peers=...
// pulls every peer's spans over real HTTP and reconstructs the
// cross-node tree — and the returned row asserts the reconstruction is
// whole: a single root, the exact span and hop counts the topology
// implies, no orphans, and an end-to-end critical path that accounts
// for the measured wall latency of the chain.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"cormi/internal/model"
	"cormi/internal/obs"
	"cormi/internal/rmi"
	"cormi/internal/trace"
)

// dtraceStepSite / dtraceLeafSite are the two call sites of the
// scenario: step is invoked remotely from node 0, leaf is the nested
// call step's executor makes from node 1 to node 2.
const (
	dtraceStepSite = "DTrace.step.1"
	dtraceLeafSite = "DTrace.leaf.1"
)

// dtraceSpansPerStep is the span count one chain link contributes:
// caller+callee for the step call, caller+callee for the nested leaf
// call.
const dtraceSpansPerStep = 4

// DTraceSpec sizes the distributed-tracing scenario. Zero fields take
// the defaults of DefaultDTraceSpec.
type DTraceSpec struct {
	// Depth is the pipelined chain depth (calls per chain).
	Depth int
	// Chains is the number of chains issued; each becomes one trace.
	Chains int
	// StepDelay is the step executor's sleep per call; LeafDelay the
	// leaf's. Real sleeps, so the reconstructed critical path is
	// comparable against measured wall time.
	StepDelay time.Duration
	LeafDelay time.Duration
}

// DefaultDTraceSpec keeps the scenario around ~30ms of wall time while
// keeping the sleeps large enough to dominate per-call overhead, so
// the critical-path-vs-wall ratio is stable.
func DefaultDTraceSpec() DTraceSpec {
	return DTraceSpec{Depth: 8, Chains: 3, StepDelay: time.Millisecond, LeafDelay: 200 * time.Microsecond}
}

func (s DTraceSpec) withDefaults() DTraceSpec {
	d := DefaultDTraceSpec()
	if s.Depth <= 0 {
		s.Depth = d.Depth
	}
	if s.Chains <= 0 {
		s.Chains = d.Chains
	}
	if s.StepDelay <= 0 {
		s.StepDelay = d.StepDelay
	}
	if s.LeafDelay <= 0 {
		s.LeafDelay = d.LeafDelay
	}
	return s
}

// TracingRow is what `rmibench -chain` prints after the chain table:
// structural facts of the reconstructed trees (identical across the
// scenario's traces by construction, so asserted, not averaged) plus
// the mean timing facts.
type TracingRow struct {
	Depth  int
	Chains int
	// Traces is how many traces node 0's /traces listed (want Chains).
	Traces int
	// SpansPerTrace is the reconstructed span count per tree (want
	// 4*Depth: step caller+callee plus leaf caller+callee per link).
	SpansPerTrace int
	// Roots is the maximum root count observed across trees (want 1: a
	// whole reconstruction has exactly one hop-0 root).
	Roots int
	// MaxHop is the deepest hop observed (want 2: node0 -> node1 ->
	// node2).
	MaxHop     int
	Orphans    int
	Duplicates int
	// CriticalPathNS / EndToEndNS / WallNS are per-chain means: the
	// tree's end-to-end critical path, its root-to-last-span extent,
	// and the caller-measured wall time of issuing and draining the
	// chain.
	CriticalPathNS int64
	EndToEndNS     int64
	WallNS         int64
	// CriticalPathRatio is CriticalPathNS / WallNS. The chain's cost is
	// real executor sleeps, so a whole reconstruction accounts for
	// nearly all of the measured wall time (ratio near 1).
	CriticalPathRatio float64
}

// RunDTrace drives the scenario and returns the verified row.
func RunDTrace(spec DTraceSpec) (*TracingRow, error) {
	spec = spec.withDefaults()

	// Three tracers for three nodes: node 0 head-samples every root
	// call it originates; nodes 1 and 2 never originate roots — they
	// record spans for whatever sampled context arrives on the wire.
	tracers := [3]*trace.Tracer{}
	for i := range tracers {
		cfg := trace.Config{RingSize: 1024}
		if i == 0 {
			cfg.SampleEvery = 1
		}
		tracers[i] = trace.New(cfg)
	}
	c := rmi.New(3,
		rmi.WithNodeTracer(0, tracers[0]),
		rmi.WithNodeTracer(1, tracers[1]),
		rmi.WithNodeTracer(2, tracers[2]))
	defer c.Close()

	servers := make([]*obs.Server, 0, 3)
	defer func() {
		for _, s := range servers {
			_ = s.Close()
		}
	}()
	addrs := make([]string, 0, 3)
	for i, tr := range tracers {
		srv, err := obs.Serve("127.0.0.1:0", obs.Options{
			Tracer:   tr,
			Counters: c.Counters,
			NodeName: fmt.Sprintf("n%d", i),
		})
		if err != nil {
			return nil, fmt.Errorf("harness: dtrace obs node %d: %w", i, err)
		}
		servers = append(servers, srv)
		addrs = append(addrs, srv.Addr())
	}

	leafCS, leafRef, err := stepFixture(c, rmi.LevelSite, 2, dtraceLeafSite, "DTraceLeaf", "leaf", func(*rmi.Call) { time.Sleep(spec.LeafDelay) })
	if err != nil {
		return nil, err
	}
	stepCS, err := stepSite(c, rmi.LevelSite, dtraceStepSite, "step")
	if err != nil {
		return nil, err
	}
	// step(x) = leaf(x) forwarded through a nested same-trace call:
	// InvokeFrom threads the executing call's trace context, so the
	// leaf spans join the chain's tree at hop 2.
	var nestedErr error
	stepRef := c.Node(1).Export(&rmi.Service{
		Name: "DTraceStep",
		Methods: map[string]rmi.Method{
			"step": func(call *rmi.Call, args []model.Value) []model.Value {
				time.Sleep(spec.StepDelay)
				vals, err := leafCS.InvokeFrom(call, leafRef, []model.Value{args[0]})
				if err != nil {
					nestedErr = err
					return []model.Value{model.Int(-1)}
				}
				return vals
			},
		},
	})

	// The chains execute strictly one after another (every future is
	// waited before the next chain starts), so the per-chain wall times
	// and the traces' start stamps share one ordering.
	caller := c.Node(0)
	walls := make([]int64, 0, spec.Chains)
	for it := 0; it < spec.Chains; it++ {
		start := time.Now()
		futs := make([]*rmi.Future, spec.Depth)
		futs[0] = stepCS.InvokeAsync(caller, stepRef, []model.Value{model.Int(int64(it))}, rmi.AsyncOpts{Promised: spec.Depth > 1})
		for d := 1; d < spec.Depth; d++ {
			futs[d] = stepCS.InvokeAsync(caller, stepRef, []model.Value{{}}, rmi.AsyncOpts{
				Promised: d < spec.Depth-1,
				Promises: []rmi.PromiseArg{{Arg: 0, Fut: futs[d-1]}},
			})
		}
		// Wait every future — an unwaited promised future leaves its
		// caller span abandoned, which would (correctly) show up as a
		// failed span in the tree.
		for d := 0; d < spec.Depth; d++ {
			vals, err := futs[d].Wait()
			if err != nil {
				return nil, fmt.Errorf("harness: dtrace chain %d link %d: %w", it, d, err)
			}
			if d == spec.Depth-1 {
				if want := int64(it + spec.Depth); vals[0].I != want {
					return nil, fmt.Errorf("harness: dtrace chain %d: got %d, want %d", it, vals[0].I, want)
				}
			}
		}
		walls = append(walls, time.Since(start).Nanoseconds())
		for _, f := range futs {
			f.Release()
		}
	}
	if nestedErr != nil {
		return nil, fmt.Errorf("harness: dtrace nested leaf call: %w", nestedErr)
	}

	// Verification over the production pull path: node 0's /traces
	// lists what it sampled; each /traces/<id>?peers=... reconstructs
	// the cross-node tree from all three stores over real HTTP.
	list, err := fetchTraceList(addrs[0])
	if err != nil {
		return nil, err
	}
	if len(list.Traces) != spec.Chains {
		return nil, fmt.Errorf("harness: dtrace sampled %d traces, want %d", len(list.Traces), spec.Chains)
	}
	row := &TracingRow{Depth: spec.Depth, Chains: spec.Chains, Traces: len(list.Traces)}
	peerQ := strings.Join(addrs[1:], ",")
	var sumCrit, sumEnd int64
	for _, ts := range list.Traces {
		view, err := fetchTraceView(addrs[0], ts.TraceID, peerQ)
		if err != nil {
			return nil, err
		}
		if len(view.Errors) > 0 {
			return nil, fmt.Errorf("harness: dtrace trace %#x peers unreachable: %v", ts.TraceID, view.Errors)
		}
		tree := view.Tree
		if tree == nil {
			return nil, fmt.Errorf("harness: dtrace trace %#x: no tree in view", ts.TraceID)
		}
		if n := len(tree.Spans); n > row.SpansPerTrace {
			row.SpansPerTrace = n
		}
		if n := len(tree.Roots); n > row.Roots {
			row.Roots = n
		}
		if int(tree.MaxHop) > row.MaxHop {
			row.MaxHop = int(tree.MaxHop)
		}
		row.Orphans += tree.Orphans
		row.Duplicates += tree.Duplicates
		sumCrit += tree.CriticalPathNS
		sumEnd += tree.EndToEndNS
	}
	n := int64(spec.Chains)
	row.CriticalPathNS = sumCrit / n
	row.EndToEndNS = sumEnd / n
	var sumWall int64
	for _, w := range walls {
		sumWall += w
	}
	row.WallNS = sumWall / n
	if row.WallNS > 0 {
		row.CriticalPathRatio = float64(row.CriticalPathNS) / float64(row.WallNS)
	}
	return row, nil
}

// fetchTraceList pulls a node's /traces document.
func fetchTraceList(addr string) (*obs.TraceList, error) {
	resp, err := http.Get("http://" + addr + "/traces")
	if err != nil {
		return nil, fmt.Errorf("harness: dtrace list: %w", err)
	}
	defer resp.Body.Close()
	var list obs.TraceList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return nil, fmt.Errorf("harness: dtrace list decode: %w", err)
	}
	if list.Version != obs.TracesVersion {
		return nil, fmt.Errorf("harness: dtrace list version %d, want %d", list.Version, obs.TracesVersion)
	}
	return &list, nil
}

// fetchTraceView pulls a merged /traces/<id>?peers=... view.
func fetchTraceView(addr string, id uint64, peers string) (*obs.TraceView, error) {
	url := fmt.Sprintf("http://%s/traces/%d?peers=%s", addr, id, peers)
	resp, err := http.Get(url)
	if err != nil {
		return nil, fmt.Errorf("harness: dtrace view: %w", err)
	}
	defer resp.Body.Close()
	var view obs.TraceView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return nil, fmt.Errorf("harness: dtrace view decode: %w", err)
	}
	if view.Version != obs.TracesVersion {
		return nil, fmt.Errorf("harness: dtrace view version %d, want %d", view.Version, obs.TracesVersion)
	}
	return &view, nil
}

// FormatTracing renders the tracing row as an aligned summary table.
func FormatTracing(row *TracingRow) string {
	if row == nil {
		return "no tracing row\n"
	}
	var b []byte
	b = fmt.Appendf(b, "%6s %7s %7s %6s %6s %8s %17s %14s %11s %6s\n",
		"depth", "chains", "spans", "roots", "maxhop", "orphans",
		"critical_path_ns", "end_to_end_ns", "wall_ns", "ratio")
	b = fmt.Appendf(b, "%6d %7d %7d %6d %6d %8d %17d %14d %11d %6.2f\n",
		row.Depth, row.Chains, row.SpansPerTrace, row.Roots, row.MaxHop,
		row.Orphans, row.CriticalPathNS, row.EndToEndNS, row.WallNS,
		row.CriticalPathRatio)
	return string(b)
}
