package stats

import "fmt"

// OverloadStats is a point-in-time snapshot of the runtime's backlog
// signals — the queues that grow when a node takes on more work than
// it retires. These are the admission-control inputs ROADMAP item 1
// consumes; the obs server exposes each field as a Prometheus gauge
// (cormi_pending_calls, cormi_promise_table, cormi_promise_parked).
// Unlike Counters these are levels, not monotone totals: they fall
// back to zero when the backlog drains.
type OverloadStats struct {
	// PendingCalls is the number of issued remote invocations still
	// awaiting their reply (the pending-table size, summed over nodes).
	PendingCalls int64 `json:"pending_calls"`
	// PromiseTable is the callee-side promise-table occupancy: promised
	// results retained for pipelined consumers, summed over nodes.
	PromiseTable int64 `json:"promise_table"`
	// PromiseParked is the number of executor goroutines currently
	// blocked in a pipelined call, waiting for a promised argument's
	// producer (not the idle executors a node keeps between calls).
	PromiseParked int64 `json:"promise_parked"`
}

// Add returns the field-wise sum of two snapshots (aggregating several
// clusters behind one obs server).
func (o OverloadStats) Add(p OverloadStats) OverloadStats {
	o.PendingCalls += p.PendingCalls
	o.PromiseTable += p.PromiseTable
	o.PromiseParked += p.PromiseParked
	return o
}

func (o OverloadStats) String() string {
	return fmt.Sprintf("overload: pending=%d promises(table=%d parked=%d)",
		o.PendingCalls, o.PromiseTable, o.PromiseParked)
}
