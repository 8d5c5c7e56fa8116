package rmi

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"cormi/internal/model"
	"cormi/internal/serial"
	"cormi/internal/stats"
	"cormi/internal/trace"
	"cormi/internal/transport"
	"cormi/internal/wire"
)

// CallSite is the per-call-site stub of §3.1: it owns the argument and
// return-value serialization plans the compiler generated for exactly
// this textual call, the configuration (which optimizations are
// active), and the reuse caches. In "class" mode the plans are unused
// and serialization is fully dynamic, which reproduces the baseline.
type CallSite struct {
	ID     int32
	Name   string // e.g. "Work.go.1"
	Method string // callee method name

	cfg        serial.Config
	args, rets side
	numRet     int
	// ignoreRet marks call sites whose return value is unused; with
	// site mode the callee sends a bare acknowledgment (§3.1).
	ignoreRet bool
	// policy, when set, overrides the cluster's call policy.
	policy *CallPolicy
	// leaf is the compiler's verdict that no method this site may
	// dispatch to reaches a remote call: the callee runs it as an
	// upcall on its receive loop (handleCall).
	leaf bool

	// statShards accumulates this site's runtime counters, one shard
	// per node. They are always on — each call does a handful of atomic
	// adds and no allocations — and are summed by Cluster.SiteStats,
	// which the obs cormi_site_* series read. Sharding by the
	// acting node keeps the atomics uncontended (a SiteCounters block
	// is exactly one cache line) and keeps the writes off the cache
	// lines holding the read-only plan data above.
	statShards []stats.SiteCounters
}

// SiteSpec describes a call site to register.
type SiteSpec struct {
	Name      string
	Method    string
	ArgPlans  []*serial.Plan // one per argument (site mode)
	RetPlans  []*serial.Plan // one per return value (site mode)
	NumRet    int            // return value count (class mode needs it too)
	IgnoreRet bool           // return value unused at this call site
	Leaf      bool           // callee reaches no remote call (core.SiteInfo.Leaf)
}

// NewCallSite registers a call site on the cluster under the given
// optimization level. Registration order must match across processes.
func (c *Cluster) NewCallSite(level OptLevel, spec SiteSpec) (*CallSite, error) {
	cfg := level.Config()
	scfg := serial.Config{CycleElim: cfg.CycleElim, Reuse: cfg.Reuse}
	if cfg.Site {
		scfg.Mode = serial.ModeSite
		for _, p := range spec.ArgPlans {
			if err := p.Validate(); err != nil {
				return nil, err
			}
		}
		for _, p := range spec.RetPlans {
			if err := p.Validate(); err != nil {
				return nil, err
			}
		}
	} else {
		scfg.Mode = serial.ModeClass
	}
	numRet := spec.NumRet
	if numRet == 0 && len(spec.RetPlans) > 0 {
		numRet = len(spec.RetPlans)
	}
	cs := &CallSite{
		Name:       spec.Name,
		Method:     spec.Method,
		cfg:        scfg,
		numRet:     numRet,
		ignoreRet:  spec.IgnoreRet,
		leaf:       spec.Leaf,
		statShards: make([]stats.SiteCounters, c.Size()),
	}
	cs.args.init(scfg, spec.ArgPlans, c.Size())
	cs.rets.init(scfg, spec.RetPlans, c.Size())
	c.siteMu.Lock()
	cs.ID = int32(len(c.sites))
	c.sites = append(c.sites, cs)
	c.siteMu.Unlock()
	return cs, nil
}

// MustNewCallSite is NewCallSite panicking on invalid plans.
func (c *Cluster) MustNewCallSite(level OptLevel, spec SiteSpec) *CallSite {
	cs, err := c.NewCallSite(level, spec)
	if err != nil {
		panic(err)
	}
	return cs
}

// Config exposes the site's serializer configuration (the benchmark's
// codec ladder reads it).
func (cs *CallSite) Config() serial.Config { return cs.cfg }

// Stats sums the per-node counter shards into one live snapshot.
func (cs *CallSite) Stats() stats.SiteStat {
	out := stats.SiteStat{Site: cs.Name}
	for i := range cs.statShards {
		out = out.Add(cs.statShards[i].Snapshot(cs.Name))
	}
	return out
}

// Caller is where a call is issued from: a *Node for a root call, or
// the *Call of a running method for a nested one, which then joins
// that method's distributed trace one hop down. A method running as an
// upcall may issue none (ErrUpcallBlocked).
type Caller interface {
	issuer() (*Node, *Call)
}

func (n *Node) issuer() (*Node, *Call) { return n, nil }

func (c *Call) issuer() (*Node, *Call) {
	if c.upcalled() {
		panic(ErrUpcallBlocked)
	}
	return c.Node, c
}

// Invoke performs the RMI on the object ref from the caller's node,
// under the site's call policy (the cluster default unless
// SetCallPolicy overrode it). Node-local calls deep-clone arguments
// and results instead of going over the wire (Figure 1's cloning
// rule).
func (cs *CallSite) Invoke(from Caller, ref Ref, args []model.Value) ([]model.Value, error) {
	n, parent := from.issuer()
	if ref.Node == n.ID {
		return cs.invokeLocal(n, ref, args)
	}
	pol := n.cluster.policy
	if cs.policy != nil {
		pol = *cs.policy
	}
	return cs.invokeRemote(n, ref, args, pol, parent)
}

// SetCallPolicy overrides the cluster's default deadline/retry policy
// for this site's calls. Set it before the site's first call.
func (cs *CallSite) SetCallPolicy(p CallPolicy) { cs.policy = &p }

// runGuarded runs a user method, converting a panic into an error
// carrying the callee's stack — the same semantics wherever the object
// is placed.
func runGuarded(method Method, call *Call, args []model.Value) (rets []model.Value, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("method panicked on node %d: %v\n%s", call.Node.ID, r, debug.Stack())
		}
	}()
	return method(call, args), nil
}

// invokeLocal handles the case where the remote object happens to live
// on the invoking machine: "the parameter and return value objects are
// cloned. This ensures that the same parameter passing semantics are
// observed regardless of the location of the called object" (§1). The
// cloning runs through the same (optimized) serializers as a remote
// call minus the network, so call-site specialization, cycle
// elimination and reuse all apply to local RPCs too — which is what
// lets the webserver reach zero allocations with reuse enabled.
func (cs *CallSite) invokeLocal(n *Node, ref Ref, args []model.Value) ([]model.Value, error) {
	c := n.cluster
	c.Counters.LocalRPCs.Add(1)
	st := &cs.statShards[n.ID]
	st.Calls.Add(1)
	st.LocalCalls.Add(1)
	audit := c.auditCall()
	if audit {
		st.ClaimChecks.Add(1)
		c.Counters.ClaimChecks.Add(1)
	}
	svc, ok := n.lookup(ref.Obj)
	if !ok {
		return nil, fmt.Errorf("rmi: no object %d on node %d", ref.Obj, n.ID)
	}
	method, ok := svc.Methods[cs.Method]
	if !ok {
		return nil, fmt.Errorf("rmi: %s has no method %q", svc.Name, cs.Method)
	}

	// The method runs in a record from the node's spare list, as an
	// executor call does, and the arguments decode into it. The record
	// goes back only after the result clone: a method may return its
	// own args, which then live in the record.
	inv := n.takeRecord()
	defer n.putRecord(inv)
	cloned, roots, err := cs.clone(n, &cs.args, args, audit, inv.inline[:])
	if err != nil {
		return nil, err
	}
	inv.call = Call{Node: n, From: n.ID, Site: cs}
	rets, err := runGuarded(method, &inv.call, cloned)
	// As on the remote path, the argument graphs go back into the
	// cache only once the method is done with them.
	cs.args.recycle(n.ID, cloned, roots)
	if err != nil {
		return nil, fmt.Errorf("rmi: %v", err)
	}
	if cs.ignoreRet && cs.cfg.Mode == serial.ModeSite {
		// §3.1 applies to local calls too: a call site that ignores
		// the return value skips the result-cloning step.
		return nil, nil
	}
	cloned, roots, err = cs.clone(n, &cs.rets, rets, audit, nil)
	if err != nil {
		return nil, err
	}
	cs.rets.recycle(n.ID, cloned, roots)
	return cloned, nil
}

// clone deep-copies vals by a serialize/deserialize round trip on node
// n through side s, honoring its plans and drawing donor graphs from
// its cache; the caller recycles the returned roots once the values
// are dead. buf is side.read's: room the copies may decode into. The
// round trip runs through one pooled message: written forward,
// rewound, read back.
func (cs *CallSite) clone(n *Node, s *side, vals []model.Value, audit bool, buf []model.Value) ([]model.Value, []*model.Object, error) {
	c := n.cluster
	if len(vals) == 0 {
		return vals, nil, nil
	}
	st := &cs.statShards[n.ID]
	m := wire.Get()
	wops, err := s.write(c, st, m, vals, audit)
	if err != nil {
		m.Release()
		return nil, nil, err
	}
	m.Rewind()
	out, roots, rops, err := s.read(c, n.ID, st, m, len(vals), audit, buf)
	m.Release()
	if err != nil {
		return nil, nil, err
	}
	wops.Add(rops)
	n.Clock.Advance(c.Cost.CostNS(wops))
	return out, roots, nil
}

// invokeRemote is the remote path: issue the call, then block for its
// reply. The pendingCall lives on this goroutine's stack. parent, when
// its invocation belongs to a sampled trace, makes the call a child of
// that invocation in the trace; otherwise (nil for a root call) the
// call is a trace root candidate and head sampling decides.
func (cs *CallSite) invokeRemote(n *Node, ref Ref, args []model.Value, pol CallPolicy, parent *Call) ([]model.Value, error) {
	var pc pendingCall
	if err := cs.startRemote(&pc, n, ref, args, pol, parent); err != nil {
		return nil, err
	}
	return pc.await()
}

// pendingCall is one issued remote invocation between its send and the
// consumption of its reply, kept on the caller's stack. startRemote
// fills it and puts the call on the wire; await waits, retransmits and
// decodes, reading only what lives here.
type pendingCall struct {
	cs       *CallSite
	n        *Node
	ref      Ref
	pol      CallPolicy
	seq      int64
	ch       chan reply
	master   []byte // sealed frame copy for retransmits (nil when single-attempt)
	wireLen  int64
	sp       *trace.Span
	audit    bool
	attempts int
	attempt  int
}

func (pc *pendingCall) siteStats() *stats.SiteCounters { return &pc.cs.statShards[pc.n.ID] }

// fail ends a call that will consume no reply — marshal or send
// failure, shutdown, deadline, a reply that reports or is an error: the
// pending slot and reply channel, when still held, are reclaimed and
// the span closes with reason. It returns err.
func (pc *pendingCall) fail(reason string, err error) error {
	if pc.ch != nil {
		pc.n.abandonCall(pc.seq, pc.ch)
		pc.ch = nil
	}
	pc.sp.Fail(reason)
	pc.sp.End()
	return err
}

func (pc *pendingCall) failClosed() error {
	return pc.fail("cluster closed", fmt.Errorf("rmi: %s: %w", pc.cs.Name, ErrClusterClosed))
}

// failSend ends a call whose attempt the transport refused. A refusal
// because Close shut the network under the send is the shutdown, and
// reads as ErrClusterClosed like every other call Close ends.
func (pc *pendingCall) failSend(err error) error {
	if pc.n.cluster.closed.Load() {
		return pc.failClosed()
	}
	return pc.fail("send: "+err.Error(), fmt.Errorf("rmi: send: %w", err))
}

// startRemote marshals, seals and sends the call's first attempt and
// registers the pending reply slot. On return (nil error) the call is
// on the wire; pc.await collects the outcome.
func (cs *CallSite) startRemote(pc *pendingCall, n *Node, ref Ref, args []model.Value, pol CallPolicy, parent *Call) error {
	// First use of the link performs the HELLO digest exchange;
	// afterwards this is a bounds check plus a sync.Once fast path. A
	// refused link fails the call before anything is marshalled.
	if l := n.linkTo(ref.Node); l != nil && l.refused {
		l.refusals.Add(1)
		return fmt.Errorf("rmi: %s: %w", cs.Name, ErrPlanMismatch)
	}
	c := n.cluster
	c.Counters.RemoteRPCs.Add(1)
	st := &cs.statShards[n.ID]
	st.Calls.Add(1)
	audit := c.auditCall()
	if audit {
		st.ClaimChecks.Add(1)
		c.Counters.ClaimChecks.Add(1)
	}

	h := wire.CallHeader{Site: cs.ID, Obj: ref.Obj, Seq: n.seq.Add(1), NArgs: int32(len(args))}
	attempts := pol.attempts()
	if attempts > 1 {
		h.Flags |= wire.CallRetryable
	}
	// With tracing off this is the observability layer's entire cost on
	// the caller: StartCaller on a nil tracer returns a nil span whose
	// methods are no-ops.
	sp := n.tracer.StartCaller(cs.Name, cs.Method, n.ID, ref.Node, h.Seq)
	// pc arrives zeroed (a fresh stack value); field stores keep the
	// bulk write-barrier move a struct assignment would cost off the
	// hot path.
	pc.cs, pc.n, pc.ref, pc.pol, pc.seq = cs, n, ref, pol, h.Seq
	pc.sp, pc.audit, pc.attempts, pc.attempt = sp, audit, attempts, 1
	if sp != nil {
		// Distributed-trace identity: a call issued by a sampled
		// invocation continues its trace under that invocation's call;
		// any other call asks the head sampler. The unsampled path costs
		// one atomic tick at roots and nothing anywhere else.
		var tctx wire.TraceContext
		var parentCall trace.CallID
		if parent != nil && parent.tctx.TraceID != 0 {
			tctx, parentCall = parent.tctx, trace.CallID{From: parent.From, Seq: parent.seq}
		} else {
			tctx.TraceID = n.tracer.SampleTrace()
		}
		if tctx.TraceID != 0 {
			sp.SetTraceIdentity(tctx.TraceID, parentCall, tctx.Hop)
			// The on-wire context puts the callee's span in the trace,
			// one hop deeper; the call's (from, seq) parents it under
			// this caller span. A chain past the hop cap sends the frame
			// without the context; the call still runs, the trace just
			// ends at this link.
			if tctx.Hop < wire.MaxTraceHops {
				h.Trace = wire.TraceContext{TraceID: tctx.TraceID, Hop: tctx.Hop + 1}
			}
		}
	}
	sp.BeginPhase(trace.PhaseSerialize)
	m := wire.Get()
	h.Encode(m)
	ops, err := cs.args.write(c, st, m, args, audit)
	if err != nil {
		m.Release()
		return pc.fail("marshal: "+err.Error(), err)
	}
	n.Clock.Advance(c.Cost.CostNS(ops))

	// The frame is marshaled and sealed once; retransmits resend the
	// same bytes under the same sequence number, which is what lets the
	// callee recognize and deduplicate them. The transport owns every
	// buffer it is handed, so a retryable call keeps a private master
	// copy to clone retransmits from; the common single-attempt call
	// skips the copy.
	pc.wireLen = int64(m.Len())
	sealed := m.SealFrame()
	if attempts > 1 {
		pc.master = append([]byte(nil), sealed...)
	}
	frame := m.Detach()
	sp.EndPhase(trace.PhaseSerialize)

	ch := n.getReplyCh()
	// closed is read under the lock failPending takes: a call registered
	// after it would wait for a reply that nothing sends.
	n.pendMu.Lock()
	closed := c.closed.Load()
	if !closed {
		n.pending[h.Seq] = ch
	}
	n.pendMu.Unlock()
	if closed {
		n.putReplyCh(ch)
		wire.PutBuf(frame)
		return pc.failClosed()
	}
	pc.ch = ch
	if err := pc.sendAttempt(frame); err != nil {
		return pc.failSend(err)
	}
	// The wait phase spans the whole round trip as the caller
	// experiences it, retransmits and backoff included.
	sp.BeginPhase(trace.PhaseWaitReply)
	return nil
}

// sendAttempt puts one sealed attempt on the wire, consuming frame.
func (pc *pendingCall) sendAttempt(frame []byte) error {
	n := pc.n
	pc.siteStats().WireBytes.Add(pc.wireLen)
	pkt := transport.Packet{To: pc.ref.Node, TS: n.Clock.Now(), Payload: frame}
	if pc.sp != nil {
		pkt.Wall = trace.Now()
	}
	pc.sp.BeginPhase(trace.PhaseSend)
	err := n.send(pkt)
	pc.sp.EndPhase(trace.PhaseSend)
	return err
}

// await blocks for the call's reply, driving retransmits and deadline
// enforcement, then decodes the outcome.
func (pc *pendingCall) await() ([]model.Value, error) {
	cs, n, pol, sp, ch := pc.cs, pc.n, pc.pol, pc.sp, pc.ch
	c := n.cluster

	// The reply wait is on ch alone: Close answers each registered call
	// through it (failPending), so a call without a deadline waits with
	// one receive.
	var rep reply
wait:
	for {
		if pol.Timeout <= 0 {
			rep = <-ch
			break
		}
		timer := time.NewTimer(pol.Timeout)
		select {
		case rep = <-ch:
			timer.Stop()
			break wait
		case <-timer.C:
		}
		if pc.attempt >= pc.attempts {
			c.Counters.Timeouts.Add(1)
			sp.EndPhase(trace.PhaseWaitReply)
			peer := pc.ref.Node
			reason := "timeout"
			err := fmt.Errorf("rmi: %s to node %d after %d attempts of %v: %w", cs.Name, peer, pc.attempts, pol.Timeout, ErrTimeout)
			if pr, ok := c.net.(transport.PartitionReporter); ok && (pr.Partitioned(n.ID, peer) || pr.Partitioned(peer, n.ID)) {
				reason, err = "partitioned", fmt.Errorf("rmi: %s to node %d: %w", cs.Name, peer, ErrPartitioned)
			}
			// fail closes the span before the dump: the flight recorder
			// must already hold the failing call when the dump is written.
			err = pc.fail(reason, err)
			n.tracer.DumpFailure(reason)
			return nil, err
		}
		if d := pol.nextBackoff(pc.attempt); d > 0 {
			select {
			case <-time.After(d):
			case <-c.done:
				return nil, pc.failClosed()
			}
		}
		c.Counters.Retries.Add(1)
		sp.AddRetry()
		f := wire.GetBuf(len(pc.master))
		copy(f, pc.master)
		pc.attempt++
		if err := pc.sendAttempt(f); err != nil {
			return nil, pc.failSend(err)
		}
	}
	// The reply landed, which means the receive loop removed the
	// pending entry before sending: the channel is empty and no further
	// send can occur — recycle it.
	n.putReplyCh(ch)
	pc.ch = nil
	sp.EndPhase(trace.PhaseWaitReply)
	if sp != nil && rep.sentWall != 0 {
		sp.SetPhase(trace.PhaseReplyTransit, rep.sentWall, rep.recvWall-rep.sentWall)
	}
	if rep.err != nil {
		wire.PutBuf(rep.buf)
		return nil, pc.fail(rep.err.Error(), rep.err)
	}
	n.Clock.Sync(rep.arrival)
	n.Clock.Advance(c.Cost.DispatchNS)

	switch rep.kind {
	case wire.ReplyAck:
		wire.PutBuf(rep.buf)
		sp.End()
		return nil, nil
	case wire.ReplyError:
		msg := rep.message()
		return nil, pc.fail("remote error: "+msg, fmt.Errorf("rmi: remote error from %s: %s", cs.Name, msg))
	case wire.ReplyMalformed:
		// The callee's hardened decoder rejected our frame. Surface the
		// typed sentinel — retrying the same bytes cannot help.
		msg := rep.message()
		return nil, pc.fail("rejected as malformed: "+msg,
			fmt.Errorf("rmi: %s: callee rejected frame (%s): %w", cs.Name, msg, ErrMalformedFrame))
	case wire.ReplyValues:
		sp.BeginPhase(trace.PhaseReplyDeserialize)
		rm := wire.GetReader(rep.payload)
		vals, roots, ops, err := cs.rets.read(c, n.ID, pc.siteStats(), rm, int(rm.ReadInt32()), pc.audit, nil)
		rm.ReleaseReader()
		wire.PutBuf(rep.buf)
		sp.EndPhase(trace.PhaseReplyDeserialize)
		if err != nil {
			if errors.Is(err, wire.ErrMalformedFrame) {
				// A CRC-valid but undecodable reply: count it against
				// the link it arrived on, same as the callee side does.
				n.noteMalformed(pc.ref.Node)
			}
			return nil, pc.fail("unmarshal reply: "+err.Error(), err)
		}
		n.Clock.Advance(c.Cost.CostNS(ops))
		cs.rets.recycle(n.ID, vals, roots)
		sp.End()
		return vals, nil
	default:
		wire.PutBuf(rep.buf)
		msg := fmt.Sprintf("bad reply flag %d", rep.kind)
		return nil, pc.fail(msg, errors.New("rmi: "+msg))
	}
}
