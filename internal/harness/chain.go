package harness

// Chained-dependency workload for the asynchronous RMI layer: a depth-N
// chain of calls where each call's argument is the previous call's
// result. Synchronously the chain costs N round trips; with promise
// pipelining the caller ships every call immediately (arguments named
// by promise handle) and the whole chain costs one round trip. The
// workload measures both the virtual-time chain latency — the
// deterministic causal critical path, robust to scheduler noise — and
// the physical frames per operation, which the per-link batcher drives
// below one for small coalesced calls.

import (
	"fmt"

	"cormi/internal/model"
	"cormi/internal/rmi"
	"cormi/internal/serial"
	"cormi/internal/wire"
)

// stepSite registers the int → int call site of a step(x) = x+1
// service.
func stepSite(c *rmi.Cluster, level rmi.OptLevel, site, method string) (*rmi.CallSite, error) {
	return c.NewCallSite(level, rmi.SiteSpec{
		Name:     site,
		Method:   method,
		ArgPlans: []*serial.Plan{serial.PrimitivePlan(site, model.FInt)},
		RetPlans: []*serial.Plan{serial.PrimitivePlan(site, model.FInt)},
		NumRet:   1,
	})
}

// stepFixture is stepSite plus the service itself, exported on node:
// method returns x+1 after running exec (nil for none).
func stepFixture(c *rmi.Cluster, level rmi.OptLevel, node int, site, service, method string, exec func(*rmi.Call)) (*rmi.CallSite, rmi.Ref, error) {
	cs, err := stepSite(c, level, site, method)
	if err != nil {
		return nil, rmi.Ref{}, err
	}
	ref := c.Node(node).Export(&rmi.Service{Name: service, Methods: map[string]rmi.Method{
		method: func(call *rmi.Call, args []model.Value) []model.Value {
			if exec != nil {
				exec(call)
			}
			return []model.Value{model.Int(args[0].I + 1)}
		},
	}})
	return cs, ref, nil
}

// ChainMode names one way of driving the dependent chain.
type ChainMode string

const (
	// ChainSync invokes each link synchronously: N round trips.
	ChainSync ChainMode = "sync"
	// ChainAsync uses futures with promise arguments over a link whose
	// peer did NOT negotiate pipelining: the runtime demotes to
	// resolve-then-send, so it behaves like sync and counts a
	// PipelineFallback per dependent call. This is the capability-
	// demotion control group.
	ChainAsync ChainMode = "async"
	// ChainPipelined uses futures with promise arguments over a fully
	// capable link: one round trip for the whole chain.
	ChainPipelined ChainMode = "pipelined"
	// ChainBatched is ChainPipelined plus the per-link frame batcher:
	// same virtual latency, fewer physical frames.
	ChainBatched ChainMode = "batched"
)

// allChainModes lists the modes in report order.
var allChainModes = []ChainMode{ChainSync, ChainAsync, ChainPipelined, ChainBatched}

// ChainRow is one measured mode of the chained workload.
type ChainRow struct {
	Mode   string
	Depth  int
	Chains int
	// ChainLatencyNS is the virtual-time cost of one depth-N chain:
	// deterministic, so ratios between modes are exact properties of
	// the protocol, not of the host machine.
	ChainLatencyNS int64
	// FramesPerOp is physical network frames per call (calls + replies,
	// after batching). Unbatched request/response traffic sits at 2.0.
	FramesPerOp float64
	// Fallbacks counts pipelined sends demoted to resolve-then-send
	// (nonzero only in async mode, where the capability is masked).
	Fallbacks int64
}

// runChainMode measures one mode of the depth-deep dependent chain,
// repeated chains times.
func runChainMode(mode ChainMode, depth, chains int) (ChainRow, error) {
	if depth < 1 || chains < 1 {
		return ChainRow{}, fmt.Errorf("harness: chain needs depth and chains >= 1 (got %d, %d)", depth, chains)
	}
	var opts []rmi.Option
	switch mode {
	case ChainSync:
	case ChainAsync:
		// Mask the capability on the callee so the link negotiates
		// pipelining away and the async layer takes its fallback.
		opts = append(opts, rmi.WithoutCaps(1, wire.CapPipelining))
	case ChainPipelined:
	case ChainBatched:
		opts = append(opts, rmi.WithBatching(rmi.BatchConfig{}))
	default:
		return ChainRow{}, fmt.Errorf("harness: unknown chain mode %q", mode)
	}
	c := rmi.New(2, opts...)
	defer c.Close()

	// A fixed compute cost gives the virtual timeline an execution
	// component as well as the flight legs.
	cs, ref, err := stepFixture(c, rmi.LevelSite, 1, "Chain.step.1", "Chain", "step", func(call *rmi.Call) { call.Compute(500) })
	if err != nil {
		return ChainRow{}, err
	}
	caller := c.Node(0)

	framesBefore := c.Counters.NetFrames.Load()
	virtBefore := c.MaxTime()
	for it := 0; it < chains; it++ {
		want := int64(it + depth)
		switch mode {
		case ChainSync:
			x := model.Int(int64(it))
			for d := 0; d < depth; d++ {
				vals, err := cs.Invoke(caller, ref, []model.Value{x})
				if err != nil {
					return ChainRow{}, fmt.Errorf("harness: chain sync: %w", err)
				}
				x = vals[0]
			}
			if x.I != want {
				return ChainRow{}, fmt.Errorf("harness: chain sync: got %d, want %d", x.I, want)
			}
		default:
			// One promised future per link; each subsequent call names
			// the previous future as its argument. In async mode the
			// runtime demotes every dependent send to resolve-then-send;
			// the program text is identical.
			futs := make([]*rmi.Future, depth)
			futs[0] = cs.InvokeAsync(caller, ref, []model.Value{model.Int(int64(it))}, rmi.AsyncOpts{Promised: true})
			for d := 1; d < depth; d++ {
				futs[d] = cs.InvokeAsync(caller, ref, []model.Value{{}}, rmi.AsyncOpts{
					Promised: d < depth-1,
					Promises: []rmi.PromiseArg{{Arg: 0, Fut: futs[d-1]}},
				})
			}
			vals, err := futs[depth-1].Wait()
			if err != nil {
				return ChainRow{}, fmt.Errorf("harness: chain %s: %w", mode, err)
			}
			if vals[0].I != want {
				return ChainRow{}, fmt.Errorf("harness: chain %s: got %d, want %d", mode, vals[0].I, want)
			}
			for _, f := range futs {
				f.Release()
			}
		}
	}
	c.FlushBatches()
	row := ChainRow{
		Mode:           string(mode),
		Depth:          depth,
		Chains:         chains,
		ChainLatencyNS: (c.MaxTime() - virtBefore) / int64(chains),
		FramesPerOp: float64(c.Counters.NetFrames.Load()-framesBefore) /
			float64(chains*depth),
		Fallbacks: c.Counters.PipelineFallbacks.Load(),
	}
	return row, nil
}

// RunChain measures every chain mode at the given depth.
func RunChain(depth, chains int) ([]ChainRow, error) {
	rows := make([]ChainRow, 0, len(allChainModes))
	for _, mode := range allChainModes {
		row, err := runChainMode(mode, depth, chains)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatChain renders chain rows as an aligned summary table.
func FormatChain(rows []ChainRow) string {
	if len(rows) == 0 {
		return "no chain rows\n"
	}
	var b []byte
	b = fmt.Appendf(b, "%-10s %6s %7s %18s %13s %10s\n",
		"mode", "depth", "chains", "chain_latency_ns", "frames_per_op", "fallbacks")
	for _, r := range rows {
		b = fmt.Appendf(b, "%-10s %6d %7d %18d %13.3f %10d\n",
			r.Mode, r.Depth, r.Chains, r.ChainLatencyNS, r.FramesPerOp, r.Fallbacks)
	}
	return string(b)
}
