package harness

// The chain workloads: chains of depth calls, each call's argument the
// previous call's result, driven in one of three ways (ChainMode).
// Whatever the mode, the level and the link condition, a chain must
// compute the same thing — "the same parameter passing semantics are
// observed regardless of the location of the called object" (§1), held
// to every adapter the runtime has grown since — which TestModeMatrix
// asserts. The int chain step(x) = x+1 has its virtual latency per mode
// pinned exactly (TestChainModes); the list chain's callee writes to its
// argument, so copy semantics are part of the answer.

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"cormi/internal/apps/appkit"
	"cormi/internal/model"
	"cormi/internal/rmi"
	"cormi/internal/serial"
)

// ChainMode names one way of driving the dependent chains.
type ChainMode string

const (
	// ChainSync invokes each link synchronously, one chain after the
	// other: N round trips per chain.
	ChainSync ChainMode = "sync"
	// ChainParallel runs every chain on its own goroutine, each link a
	// synchronous call: several calls of one site at the callee at once.
	ChainParallel ChainMode = "parallel"
	// ChainLocal is ChainSync with the service on the caller's own node:
	// no frame leaves it, arguments and results are cloned.
	ChainLocal ChainMode = "local"
)

// chainKind is one chain program: setup registers its call site and
// exports its service on node — the method runs exec, then answers step
// of its argument, which step may write to — and seed starts chain it.
type chainKind struct {
	name    string
	objects bool
	setup   func(c *rmi.Cluster, level rmi.OptLevel, node int, exec func(*rmi.Call)) (cs *rmi.CallSite, ref rmi.Ref, err error)
	seed    func(c *rmi.Cluster, it int) model.Value
	step    func(x model.Value) model.Value
}

// stepSite registers the int → int call site of a step(x) = x+1 service.
func stepSite(c *rmi.Cluster, level rmi.OptLevel, site, method string) *rmi.CallSite {
	return c.MustNewCallSite(level, rmi.SiteSpec{
		Name:     site,
		Method:   method,
		ArgPlans: []*serial.Plan{serial.PrimitivePlan(site, model.FInt)},
		RetPlans: []*serial.Plan{serial.PrimitivePlan(site, model.FInt)},
		NumRet:   1,
	})
}

// export publishes a service on node whose one method runs exec (nil
// for none), then answers step of its argument.
func export(c *rmi.Cluster, node int, service, method string, exec func(*rmi.Call), step func(model.Value) model.Value) rmi.Ref {
	return c.Node(node).Export(&rmi.Service{Name: service, Methods: map[string]rmi.Method{
		method: func(call *rmi.Call, args []model.Value) []model.Value {
			if exec != nil {
				exec(call)
			}
			return []model.Value{step(args[0])}
		},
	}})
}

func increment(x model.Value) model.Value { return model.Int(x.I + 1) }

// intChain is step(x) = x+1 over hand-built primitive plans.
var intChain = chainKind{
	name: "Chain",
	setup: func(c *rmi.Cluster, level rmi.OptLevel, node int, exec func(*rmi.Call)) (*rmi.CallSite, rmi.Ref, error) {
		return stepSite(c, level, "Chain.step.1", "step"), export(c, node, "Chain", "step", exec, increment), nil
	},
	seed: func(_ *rmi.Cluster, it int) model.Value { return model.Int(int64(it)) },
	step: increment,
}

// digest folds values — ints, or lists of L — into one number.
func digest(vals []model.Value) uint64 {
	h := fnv.New64a()
	for _, v := range vals {
		fmt.Fprintf(h, "%d[", v.I)
		// Bounded, so a list that a reuse bug tied into a cycle ends.
		for p, n := v.O, 0; p != nil && n < 1<<16; p, n = p.Fields[1].O, n+1 {
			fmt.Fprintf(h, "%d,", p.Fields[0].I)
		}
	}
	return h.Sum64()
}

// driveChains runs one chain of depth calls through cs from each seed
// and returns the chains' last results: one chain after the other, or,
// in ChainParallel, every chain on its own goroutine. The error is the
// first failed chain's, in chain order.
func driveChains(cs *rmi.CallSite, caller *rmi.Node, ref rmi.Ref, mode ChainMode, depth int, seeds []model.Value) ([]model.Value, error) {
	xs := append([]model.Value(nil), seeds...)
	errs := make([]error, len(xs))
	chain := func(it int) {
		for d := 0; d < depth; d++ {
			vals, err := cs.Invoke(caller, ref, []model.Value{xs[it]})
			if err != nil {
				errs[it] = fmt.Errorf("chain %d link %d: %w", it, d, err)
				return
			}
			xs[it] = vals[0]
		}
	}
	if mode == ChainParallel {
		var wg sync.WaitGroup
		for it := range xs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				chain(it)
			}()
		}
		wg.Wait()
	} else {
		for it := range xs {
			if chain(it); errs[it] != nil {
				break
			}
		}
	}
	for _, err := range errs {
		if err != nil {
			return xs, err
		}
	}
	return xs, nil
}

// chainWorkload is kind driven in mode on two nodes, each method body
// charging a fixed compute cost so the virtual timeline has an
// execution component beside the flight legs. Its witness: every chain
// gives what folding step over a copy of its seed gives, and every link
// ran exactly once. Its answer: the results, the seeds as the caller
// sees them afterwards (the callee's writes to its argument must not
// show) and the execution count.
func chainWorkload(kind chainKind, mode ChainMode, depth, chains int) Workload {
	return Workload{Name: kind.name, Mode: mode, Objects: kind.objects, Run: func(level rmi.OptLevel, _ Scale, opts []rmi.Option) (Outcome, error) {
		c := rmi.New(2, opts...)
		defer c.Close()
		out := Outcome{Depth: depth, Chains: chains, overload: c.Overload}
		callee := 1
		if mode == ChainLocal {
			callee = 0
		}
		var execs atomic.Int64
		cs, ref, err := kind.setup(c, level, callee, func(call *rmi.Call) {
			execs.Add(1)
			call.Compute(500)
			if mode == ChainParallel {
				// Hold the argument while the other chains' calls arrive:
				// whatever they are unmarshalled into must not be it.
				time.Sleep(100 * time.Microsecond)
			}
		})
		if err != nil {
			return out, err
		}
		seeds, folded := make([]model.Value, chains), make([]model.Value, chains)
		for it := range seeds {
			seeds[it] = kind.seed(c, it)
			folded[it] = model.CloneValue(seeds[it])
			for d := 0; d < depth; d++ {
				folded[it] = kind.step(folded[it])
			}
		}

		frames, virt := c.Counters.NetFrames.Load(), c.MaxTime()
		got, err := driveChains(cs, c.Node(0), ref, mode, depth, seeds)
		out.RunResult = appkit.Collect(c)
		out.ChainLatencyNS = (c.MaxTime() - virt) / int64(chains)
		out.FramesPerOp = float64(c.Counters.NetFrames.Load()-frames) / float64(chains*depth)
		if err != nil {
			return out, err
		}
		results := digest(got)
		out.Answer = fmt.Sprintf("results %016x, arguments after %016x, %d executions", results, digest(seeds), execs.Load())
		switch links := int64(chains * depth); {
		case results != digest(folded):
			return out, fmt.Errorf("chain results differ from folding step over the seeds")
		case execs.Load() != links:
			return out, fmt.Errorf("method body executed %d times, want exactly %d", execs.Load(), links)
		}
		return out, nil
	}}
}

// chainWorkloads is kind in each of modes.
func chainWorkloads(kind chainKind, modes []ChainMode, depth, chains int) []Workload {
	ws := make([]Workload, len(modes))
	for i, m := range modes {
		ws[i] = chainWorkload(kind, m, depth, chains)
	}
	return ws
}

// RunChain measures the int chain, driven synchronously, at level site
// over a clean channel network.
func RunChain(depth, chains int) (*Report, error) {
	if depth < 1 || chains < 1 {
		return nil, fmt.Errorf("harness: chain needs depth and chains >= 1 (got %d, %d)", depth, chains)
	}
	rep := &Report{Cols: []Column[Row]{
		{"mode", -10, "%s", func(r *Row) any { return r.Mode }},
		depthCol, chainsCol,
		{"chain_latency_ns", 18, "%d", func(r *Row) any { return r.ChainLatencyNS }},
		{"frames_per_op", 13, "%.3f", func(r *Row) any { return r.FramesPerOp }},
	}}
	return rep, runGrid(rep, Scale{Nodes: 2}, chainWorkloads(intChain, []ChainMode{ChainSync}, depth, chains),
		[]Condition{Clean}, []rmi.OptLevel{rmi.LevelSite})
}
