package rmi

import (
	"fmt"
	"sync"

	"cormi/internal/model"
	"cormi/internal/trace"
	"cormi/internal/wire"
)

// Asynchronous invocation: futures and promise pipelining on top of
// the same (from, seq) call identity, pending table and pooled reply
// channels the synchronous path uses.
//
// InvokeAsync issues the call and returns a pooled Future immediately;
// the round trip overlaps whatever the caller does next, and the
// deadline/retry policy is enforced when the caller finally waits.
// Promise pipelining closes the loop: an unresolved Future can be
// passed as an argument to a dependent call on the same node, which
// ships only a (from, seq) handle — the callee splices the producer's
// result from its promise table, so a depth-N dependent chain costs
// one caller round trip instead of N.
//
// Pipelining is capability-gated per link (wire.CapPipelining,
// negotiated at HELLO time): a peer that does not speak it gets the
// resolve-then-send fallback. Callers never need to know — the
// demotion is counted (PipelineFallbacks) but semantically invisible.

// Future is one in-flight asynchronous invocation. Exactly one
// goroutine drives it (Wait, Err, or the driver Done starts); any
// number may select on Done and read the outcome afterwards. Futures
// are pooled — call Release when done with one, after which it must
// not be touched.
type Future struct {
	pc pendingCall
	c  *Cluster

	resolve sync.Once
	drive   sync.Once

	mu       sync.Mutex
	resolved bool
	driving  bool
	vals     []model.Value
	err      error
	done     chan struct{}

	// promised records that the call was sent with wire.CallPromised on
	// a pipelining-capable link: its (from, seq) is a valid promise
	// handle for a dependent call to the same node.
	promised bool
}

// Wait blocks until the call completes and returns its results. The
// call's deadline/retry policy is enforced here — retransmits and
// timeouts are driven by the waiting goroutine. Safe to call more than
// once; later calls return the memoized outcome.
func (f *Future) Wait() ([]model.Value, error) {
	f.resolve.Do(f.doResolve)
	<-f.done
	return f.vals, f.err
}

// Err waits for completion and returns the call's error, discarding
// results.
func (f *Future) Err() error {
	_, err := f.Wait()
	return err
}

// Done returns a channel closed when the call completes. Because
// resolution is caller-driven, Done starts a driver goroutine on first
// use if nobody is waiting yet; select-heavy callers pay one goroutine,
// plain Wait callers pay none.
func (f *Future) Done() <-chan struct{} {
	f.drive.Do(func() {
		f.mu.Lock()
		started := f.resolved
		if !started {
			f.driving = true
		}
		f.mu.Unlock()
		if !started {
			go f.resolve.Do(f.doResolve)
		}
	})
	return f.done
}

func (f *Future) doResolve() {
	f.mu.Lock()
	if f.resolved {
		f.mu.Unlock()
		return
	}
	f.mu.Unlock()
	vals, err := f.pc.await()
	f.complete(vals, err)
}

func (f *Future) complete(vals []model.Value, err error) {
	f.mu.Lock()
	if !f.resolved {
		f.vals, f.err = vals, err
		f.resolved = true
		close(f.done)
	}
	f.mu.Unlock()
}

// Release returns the future to the cluster's pool. Call it when no
// goroutine will touch the future again. Releasing a future that was
// never waited on abandons the call: the pending slot and reply
// channel are reclaimed (the callee still executes — the call was
// already on the wire).
func (f *Future) Release() {
	f.mu.Lock()
	resolved, driving := f.resolved, f.driving
	f.mu.Unlock()
	if !resolved {
		if driving {
			// A Done-started driver owns the pending call; dropping the
			// future to the GC is safer than pooling under its feet.
			return
		}
		f.resolve.Do(func() {
			f.complete(nil, f.pc.fail("abandoned", fmt.Errorf("rmi: %s: future released before Wait", f.pc.cs.Name)))
		})
	}
	c := f.c
	f.pc = pendingCall{}
	f.vals, f.err, f.c = nil, nil, nil
	c.futPool.Put(f)
}

// newFuture draws a recycled Future and re-arms it.
func (c *Cluster) newFuture() *Future {
	var f *Future
	if v := c.futPool.Get(); v != nil {
		f = v.(*Future)
	} else {
		f = &Future{}
	}
	f.resolve = sync.Once{}
	f.drive = sync.Once{}
	f.resolved = false
	f.driving = false
	f.promised = false
	f.done = make(chan struct{})
	f.c = c
	return f
}

// immediateFuture returns an already-completed future (local calls,
// send failures, fallback paths).
func (c *Cluster) immediateFuture(vals []model.Value, err error) *Future {
	f := c.newFuture()
	f.complete(vals, err)
	return f
}

// PromiseArg pipelines one argument: position Arg of the new call is
// return value Ret of the (not necessarily resolved) earlier call fut.
type PromiseArg struct {
	Arg int
	Fut *Future
	Ret int
}

// AsyncOpts selects the asynchronous variations of one InvokeAsync.
type AsyncOpts struct {
	// Promised publishes the call's outcome in the callee's promise
	// table so a later pipelined call can reference it.
	Promised bool
	// Promises pipelines argument positions from earlier promised
	// futures targeting the same node.
	Promises []PromiseArg
	// Policy overrides the cluster call policy for this call.
	Policy *CallPolicy
	// Trace, when non-zero, makes the call a child of an existing
	// sampled trace (e.g. Call.TraceContext from inside a method).
	// When zero and the call pipelines promises, the trace context of
	// the first promised future is inherited automatically, so a
	// pipelined chain shares its root's trace; otherwise the call is a
	// root candidate and head sampling decides.
	Trace wire.TraceContext
}

// InvokeAsync issues the call without waiting for its reply and
// returns a Future for the outcome. Node-local calls execute inline
// and return an already-completed future, preserving placement
// transparency. See AsyncOpts for promise pipelining.
func (cs *CallSite) InvokeAsync(n *Node, ref Ref, args []model.Value, opts AsyncOpts) *Future {
	c := n.cluster
	c.Counters.AsyncCalls.Add(1)
	pol := c.policy
	if opts.Policy != nil {
		pol = *opts.Policy
	}

	if ref.Node == n.ID {
		// Local call: resolve any pipelined arguments first (their
		// producers may be remote), then clone-invoke inline.
		if len(opts.Promises) > 0 {
			var err error
			args, err = spliceResolved(args, opts.Promises)
			if err != nil {
				return c.immediateFuture(nil, err)
			}
		}
		vals, err := cs.invokeLocal(n, ref, args)
		return c.immediateFuture(vals, err)
	}

	l := n.linkTo(ref.Node)
	pipeOK := l != nil && l.caps&wire.CapPipelining != 0

	var ex callExtras
	ex.tctx = opts.Trace
	if ex.tctx.TraceID == 0 {
		// Inherit the trace of the first pipelined producer: the chain's
		// later calls are causally downstream of it even though they are
		// issued before it resolves. pc.tctx is written before the
		// producer's future is returned and never mutated, so this read
		// does not race its resolution.
		for _, p := range opts.Promises {
			if p.Fut != nil && p.Fut.pc.tctx.TraceID != 0 {
				ex.tctx = p.Fut.pc.tctx
				break
			}
		}
	}
	if opts.Promised && pipeOK {
		ex.promised = true
	}
	if len(opts.Promises) > 0 {
		handles, ok := promiseHandles(n, ref, args, opts.Promises, pipeOK)
		if ok {
			ex.handles = handles
		} else {
			// Capability or eligibility fallback: wait for the producer
			// futures here and ship plain values. Slower (the chain
			// round-trips) but semantically identical.
			c.Counters.PipelineFallbacks.Add(1)
			var err error
			args, err = spliceResolved(args, opts.Promises)
			if err != nil {
				return c.immediateFuture(nil, err)
			}
		}
	}

	f := c.newFuture()
	if err := cs.startRemote(&f.pc, n, ref, args, pol, ex); err != nil {
		f.complete(nil, err)
		return f
	}
	if ex.promised {
		c.Counters.PromisedCalls.Add(1)
		f.promised = true
	}
	if f.pc.sp != nil {
		f.pc.issued = trace.Now()
	}
	return f
}

// promiseHandles validates the pipelined arguments and builds their
// wire handles. All-or-nothing: one ineligible promise demotes the
// whole call to the resolve-then-send fallback (mixing spliced and
// parked positions would complicate the callee for no win).
func promiseHandles(n *Node, ref Ref, args []model.Value, ps []PromiseArg, pipeOK bool) ([]wire.PromiseHandle, bool) {
	if !pipeOK || len(ps) > wire.MaxPromiseHandles {
		return nil, false
	}
	handles := make([]wire.PromiseHandle, 0, len(ps))
	seen := make(map[int]bool, len(ps))
	for _, p := range ps {
		fut := p.Fut
		if fut == nil || p.Arg < 0 || p.Arg >= len(args) || seen[p.Arg] {
			return nil, false
		}
		// Eligible producers: issued by this caller, to this callee,
		// with the promised flag on the wire — the callee's table is
		// keyed (from, seq), so anything else cannot resolve there.
		if !fut.promised || fut.pc.n != n || fut.pc.ref.Node != ref.Node {
			return nil, false
		}
		if p.Ret < 0 || p.Ret >= wire.MaxPromiseHandles {
			return nil, false
		}
		seen[p.Arg] = true
		handles = append(handles, wire.PromiseHandle{Arg: int32(p.Arg), Seq: fut.pc.seq, Ret: int32(p.Ret)})
	}
	return handles, true
}

// spliceResolved waits out the producer futures and substitutes their
// results into a private copy of args (the fallback path).
func spliceResolved(args []model.Value, ps []PromiseArg) ([]model.Value, error) {
	out := make([]model.Value, len(args))
	copy(out, args)
	for _, p := range ps {
		if p.Fut == nil || p.Arg < 0 || p.Arg >= len(out) {
			return nil, fmt.Errorf("rmi: invalid promise argument %d", p.Arg)
		}
		vals, err := p.Fut.Wait()
		if err != nil {
			return nil, fmt.Errorf("rmi: promised argument %d failed: %w", p.Arg, err)
		}
		if p.Ret < 0 || p.Ret >= len(vals) {
			return nil, fmt.Errorf("rmi: promised argument %d: no return value %d", p.Arg, p.Ret)
		}
		out[p.Arg] = vals[p.Ret]
	}
	return out, nil
}
