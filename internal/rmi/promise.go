package rmi

import (
	"cormi/internal/model"
)

// Per-node promise table for pipelined calls.
//
// A pipelined call names one of its arguments by promise handle — the
// (from, seq) identity of an earlier call whose result has not come
// back to the caller yet — instead of by value. The callee resolves
// the handle against this table: when the named call has already
// executed here, the recorded results splice straight into the
// argument slot; when it is still running, the pipelined call parks on
// the entry's ready channel until the producer fulfills it. Either
// way the caller never waited for the intermediate result, so a
// depth-N dependent chain costs one caller round trip instead of N.
//
// The table is keyed by the same (from, seq) identity as the dedup
// cache, so a handle can only name a call issued by the same caller —
// a hostile peer cannot splice another node's results into its own
// arguments. Entries are bounded (promiseCap) with FIFO eviction that
// prefers completed entries; evicting a still-pending entry fails any
// calls parked on it rather than leaving them parked forever.

// promiseEntry is one call's recorded outcome (or the rendezvous for
// calls arriving before the outcome exists).
type promiseEntry struct {
	done bool
	vals []model.Value // deep-cloned results; valid when done && err == ""
	err  string        // non-empty when the producing call failed
	ts   int64         // virtual time the producing call completed
	// ready is closed when the entry transitions to done. Created
	// lazily by the first pipelined call that arrives early.
	ready chan struct{}
}

// promiseGet returns the entry for key, creating a pending entry (with
// a ready channel to park on) if none exists yet — the pipelined call
// raced ahead of its producer.
func (n *Node) promiseGet(key dedupKey) *promiseEntry {
	n.promMu.Lock()
	e := n.promises[key]
	if e == nil {
		e = &promiseEntry{ready: make(chan struct{})}
		n.promiseInsertLocked(key, e)
	}
	n.promMu.Unlock()
	return e
}

// promiseFulfill records the successful outcome of call key so later
// (or parked) pipelined calls can splice its results. vals are
// deep-cloned at publication: the producer's reply buffer and arg
// caches recycle independently of how long the promise lives.
func (n *Node) promiseFulfill(key dedupKey, vals []model.Value, ts int64) {
	n.promiseComplete(key, model.CloneValues(vals, nil), "", ts)
}

// promiseFail records that call key failed; parked pipelined calls
// propagate the error instead of executing with a garbage argument.
func (n *Node) promiseFail(key dedupKey, msg string, ts int64) {
	n.promiseComplete(key, nil, msg, ts)
}

func (n *Node) promiseComplete(key dedupKey, vals []model.Value, errMsg string, ts int64) {
	n.promMu.Lock()
	e := n.promises[key]
	if e == nil {
		e = &promiseEntry{}
		n.promiseInsertLocked(key, e)
	}
	if e.done {
		// Duplicate completion (retransmitted producer absorbed by the
		// dedup cache re-announcing): first outcome wins.
		n.promMu.Unlock()
		return
	}
	e.done = true
	e.vals = vals
	e.err = errMsg
	e.ts = ts
	ready := e.ready
	n.promMu.Unlock()
	if ready != nil {
		close(ready)
	}
}

// promiseInsertLocked adds a new entry, evicting FIFO at capacity.
// Completed entries evict first (their consumers have had their
// chance); when every older entry is still pending, the oldest pending
// entry is failed so its parked calls error out instead of waiting on
// an entry the table no longer tracks.
func (n *Node) promiseInsertLocked(key dedupKey, e *promiseEntry) {
	for len(n.promises) >= promiseCap && len(n.promQ) > 0 {
		victimIdx := -1
		for i, k := range n.promQ {
			if v := n.promises[k]; v == nil {
				// Stale queue slot from a prior eviction scan.
				victimIdx = i
				break
			} else if v.done {
				victimIdx = i
				break
			}
		}
		if victimIdx < 0 {
			victimIdx = 0
		}
		k := n.promQ[victimIdx]
		n.promQ = append(n.promQ[:victimIdx], n.promQ[victimIdx+1:]...)
		v := n.promises[k]
		delete(n.promises, k)
		if v != nil && !v.done {
			v.done = true
			v.err = "promise evicted"
			if v.ready != nil {
				close(v.ready)
			}
		}
	}
	if n.promises == nil {
		n.promises = make(map[dedupKey]*promiseEntry)
	}
	n.promises[key] = e
	n.promQ = append(n.promQ, key)
}

// failPromises fails every pending entry and empties the table (cluster
// shutdown), so pipelined calls parked on a producer that will never
// run unblock with an error (they hold their entry by pointer).
func (n *Node) failPromises() {
	n.promMu.Lock()
	var toClose []chan struct{}
	for _, e := range n.promises {
		if !e.done {
			e.done = true
			e.err = ErrClusterClosed.Error()
			if e.ready != nil {
				toClose = append(toClose, e.ready)
			}
		}
	}
	n.promises, n.promQ = nil, nil
	n.promMu.Unlock()
	for _, ch := range toClose {
		close(ch)
	}
}
