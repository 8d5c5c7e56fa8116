// Async chaos mode: drive the chained futures + promise-pipelining
// workload to completion over a lossy, duplicating, reordering,
// corrupting interconnect at every optimization level, and verify
// exactly-once execution of every link of every chain. This is the
// acceptance gate for the asynchronous layer's fault story: a dropped
// producer frame must be retransmitted by its future's waiter and
// unpark the dependent call at the callee, a duplicated frame must be
// absorbed by the (from, seq) dedup cache without re-splicing the
// promise, and a corrupted frame must be CRC-dropped and recovered.

package harness

import (
	"fmt"
	"sync/atomic"

	"cormi/internal/apps/appkit"
	"cormi/internal/model"
	"cormi/internal/rmi"
)

// ChaosAsync runs the depth-deep dependent chain with promised futures
// over a faulty network at every optimization level. Every future is
// driven (Wait), because under loss retransmission of a dropped
// producer frame comes from that producer's own waiter; the chain is
// still fully pipelined on the happy path since all sends are issued
// before the first Wait.
func ChaosAsync(spec ChaosSpec, depth, chains int) (*ChaosReport, error) {
	report := &ChaosReport{Spec: spec}
	for row, level := range rmi.AllLevels {
		res, execs, err := chaosAsyncRow(level, spec, row, depth, chains)
		if err == nil {
			err = verifyExactlyOnce("AsyncChain", execs, int64(chains*depth))
		}
		report.Rows = append(report.Rows, ChaosRow{
			App: "AsyncChain", Level: level, Seconds: res.Seconds, Stats: res.Stats, Err: err})
	}
	return report, report.Failed()
}

// chaosAsyncRow runs one optimization level of the async chaos matrix
// and returns the cluster outcome plus the callee's execution count.
func chaosAsyncRow(level rmi.OptLevel, spec ChaosSpec, row, depth, chains int) (appkit.RunResult, int64, error) {
	c := rmi.New(2, chaosOpts(spec, row)...)
	defer c.Close()

	var execs atomic.Int64
	cs, ref, err := stepFixture(c, level, 1, "AsyncChain.step.1", "AsyncChain", "step", func(call *rmi.Call) {
		execs.Add(1)
		call.Compute(500)
	})
	if err != nil {
		return appkit.RunResult{}, 0, err
	}
	caller := c.Node(0)

	for it := 0; it < chains; it++ {
		futs := make([]*rmi.Future, depth)
		futs[0] = cs.InvokeAsync(caller, ref, []model.Value{model.Int(int64(it))}, rmi.AsyncOpts{Promised: true})
		for d := 1; d < depth; d++ {
			futs[d] = cs.InvokeAsync(caller, ref, []model.Value{{}}, rmi.AsyncOpts{
				Promised: d < depth-1,
				Promises: []rmi.PromiseArg{{Arg: 0, Fut: futs[d-1]}},
			})
		}
		for d := 0; d < depth; d++ {
			vals, err := futs[d].Wait()
			if err != nil {
				return appkit.Collect(c), execs.Load(), fmt.Errorf("chain %d link %d: %w", it, d, err)
			}
			if want := int64(it + d + 1); vals[0].I != want {
				return appkit.Collect(c), execs.Load(), fmt.Errorf("chain %d link %d: got %d, want %d", it, d, vals[0].I, want)
			}
		}
		for _, f := range futs {
			f.Release()
		}
	}
	return appkit.Collect(c), execs.Load(), nil
}
