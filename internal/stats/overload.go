package stats

// OverloadStats is a point-in-time snapshot of the runtime's backlog
// signals — the queues that grow when a node takes on more work than
// it retires. These are the inputs an overload answer (ROADMAP item
// 3(b)) would read; the obs server exposes each field as a Prometheus gauge
// (cormi_pending_calls).
// Unlike Counters these are levels, not monotone totals: they fall
// back to zero when the backlog drains.
type OverloadStats struct {
	// PendingCalls is the number of issued remote invocations still
	// awaiting their reply (the pending-table size, summed over nodes).
	PendingCalls int64 `json:"pending_calls"`
}
