package rmi

import (
	"errors"
	"fmt"
	"sync"

	"cormi/internal/model"
	"cormi/internal/serial"
	"cormi/internal/trace"
	"cormi/internal/transport"
	"cormi/internal/wire"
)

// recvLoop drains the node's network endpoint. Every frame is checksum
// verified first — corrupted frames are dropped and recovered by the
// sender's retransmit, never deserialized. Incoming calls are then
// deserialized here into one invocation record. The loop is the node's
// only decoder, so the paper's "only one thread can drain the network"
// rule holds by construction, with no lock: a node's reuse caches are
// never read by two decoders at once (DESIGN.md §8). A leaf call
// (DESIGN.md §8, "Dispatch") then runs here, on the loop, after its
// decode: the method, its reply
// and the reset of the node's reusable record. Any other call's record,
// taken from the node's spare list, goes to a parked executor goroutine
// (a new one when none is parked), which runs the method, replies and
// returns the record to the list. Replies are routed to the pending
// invocation.
//
// Frame ownership (DESIGN.md §8): the loop owns every received
// payload. Call frames are fully deserialized inside handleCall (views
// into the frame are copied into user objects there), so the frame is
// recycled as soon as handleCall returns; reply frames travel onward
// inside the reply struct and are recycled by the invoker. Frames that
// turn out corrupt, stale or unroutable are recycled here.
func (n *Node) recvLoop(wg *sync.WaitGroup) {
	defer wg.Done()
	// One reusable reader wraps each frame in turn; it never owns them.
	rd := wire.GetReader(nil)
	defer rd.ReleaseReader()
	for {
		p, ok := n.ep.Recv()
		if !ok {
			return
		}
		frame := p.Payload
		payload, err := wire.Unseal(frame)
		if err != nil {
			n.cluster.Counters.CorruptDropped.Add(1)
			wire.PutBuf(frame)
			continue
		}
		p.Payload = payload
		rd.ResetTo(payload)
		switch t := rd.ReadU8(); t {
		case wire.MsgCall:
			up := n.handleCall(p, rd)
			wire.PutBuf(frame)
			if up != nil {
				n.executeAndReply(up)
				*up = invocation{}
			}
		case wire.MsgReply:
			n.routeReply(p, rd, frame)
		default:
			// CRC-valid frame with an unknown message tag: the sender is
			// speaking a different protocol (or lying). Not a transport
			// fault, so it counts as malformed, not corrupt.
			n.noteMalformed(p.From)
			wire.PutBuf(frame)
		}
	}
}

// routeReply hands one reply frame to its pending invocation. The
// channel send happens under pendMu, *before* the entry's removal is
// visible to anyone else: abandonCall relies on "entry absent ⇒ reply
// already in the channel" to recycle reply channels without leaking a
// raced-in frame. It consumes frame.
func (n *Node) routeReply(p transport.Packet, rd *wire.Message, frame []byte) {
	seq, kind := wire.ReadReplyHeader(rd)
	if rd.Err() != nil {
		n.cluster.Counters.CorruptDropped.Add(1)
		wire.PutBuf(frame)
		return
	}
	arrival := p.TS + n.cluster.Cost.MessageNS(len(p.Payload))
	body := p.Payload[wire.ReplyHeaderLen:]
	n.pendMu.Lock()
	ch, ok := n.pending[seq]
	if ok {
		delete(n.pending, seq)
		// Buffered channel of one, sole reply for this entry: the send
		// cannot block while holding the lock.
		ch <- reply{
			kind: kind, payload: body, buf: frame, arrival: arrival,
			sentWall: p.Wall, recvWall: p.RecvWall,
		}
	}
	n.pendMu.Unlock()
	if !ok {
		// Duplicate or post-timeout reply; the call is gone.
		n.cluster.Counters.StaleReplies.Add(1)
		wire.PutBuf(frame)
	}
}

// invocation is one call from decode to reply. Every record is
// reused, so its *Call (&inv.call) and argument slice are valid until
// the method returns (DESIGN.md §8, "Record lifetime"). An upcall (a
// leaf site's call) uses the node's one record, Node.up, which the
// receive loop zeroes once the reply is sent. An executor call takes a
// record from the node's spare list, and its executor zeroes it and
// puts it back once the reply is sent; a node-local call does the same
// once its result is cloned. call carries the caller (From) and its
// seq, the site, the virtual start (arrival + dispatch + unmarshal) and
// the trace handle nested calls inherit.
type invocation struct {
	call   Call
	method Method
	sp     *trace.Span
	args   []model.Value
	roots  []*model.Object
	track  bool // dedup bookkeeping needed
	audit  bool // claim-checking sampled on
	// inline backs args when the reuse cache supplies no scratch and
	// the call has at most two arguments, so a two-argument call such
	// as LU's flush_block(int, double[]) decodes into the record, not
	// into a fresh slice. Two values put the record in the 240-byte
	// size class (192 with one); records are recycled, not allocated
	// per call, so the size is paid once per record.
	inline [2]model.Value
}

// handleCall deserializes one incoming call into its invocation record.
// It runs on the node's receive loop, its communication processor (the
// paper's GM poll thread) and only decoder. A call through a leaf site
// to a service that does not block decodes into the node's reusable
// record, which handleCall returns for the loop to run; any other call decodes into a record from the
// node's spare list and is dispatched to an executor, and handleCall
// returns nil, as it does for a call it answered itself.
func (n *Node) handleCall(p transport.Packet, m *wire.Message) *invocation {
	c := n.cluster
	// A call frame over a refused link is dropped undecoded and
	// unanswered: its sender runs other plans, so none of it reads as
	// this program's (and an honest sender never issues it).
	if l := n.linkTo(p.From); l != nil && l.refused {
		l.refusals.Add(1)
		return nil
	}

	// Message flight time + receiver upcall; the communication
	// processor handles dispatch and unmarshaling contention free, so
	// the invocation's timeline is purely causal.
	arrival := p.TS + c.Cost.MessageNS(len(p.Payload))
	start := arrival + c.Cost.DispatchNS

	// A hostile trace context fails the message and takes the same
	// malformed path as a broken header.
	var h wire.CallHeader
	if err := h.Decode(m); err != nil {
		// The header itself is undecodable — nothing in this frame
		// (including seq and the flags) can be trusted, so no dedup
		// entry exists yet and the reply is best-effort.
		n.noteMalformed(p.From)
		n.sendFailure(p.From, h.Seq, start, wire.ReplyMalformed, fmt.Sprintf("bad call header: %v", err), false, nil)
		return nil
	}
	// track decides whether this call needs dedup bookkeeping: the
	// caller may retransmit it, or the interconnect itself can
	// duplicate packets. On a fault-free non-retrying hot path a
	// duplicate is impossible, so the map insert, entry and reply-copy
	// costs are skipped entirely.
	track := h.Flags&wire.CallRetryable != 0 || c.faulty
	// traced mirrors the caller's span with a callee-side one: a caller
	// that opened a span stamps the packet's wall clock, and nothing
	// else does. Header and lookup errors reply before a span exists
	// (nil span = no-op).
	traced := n.tracer != nil && p.Wall != 0

	// Redelivery check before anything touches user state or the §3.3
	// reuse caches: a retransmitted or duplicated call must not
	// deserialize its arguments (that would clobber in-use donor
	// graphs) and must not re-execute the user method.
	if track {
		if e, fresh := n.dedupAdmit(dedupKey{from: p.From, seq: h.Seq}); !fresh {
			c.Counters.DupSuppressed.Add(1)
			if e != nil && e.payload != nil {
				// The call already completed: answer from the reply
				// cache with a fresh copy (the transport consumes the
				// buffer it is handed; the cache keeps its own).
				cp := wire.GetBuf(len(e.payload))
				copy(cp, e.payload)
				_ = n.send(transport.Packet{To: p.From, TS: e.ts, Payload: cp})
			}
			return nil
		}
	}

	var lookupStart int64
	if traced {
		lookupStart = trace.Now()
	}
	unresolved := func(msg string) *invocation {
		n.rejectCall(&invocation{call: Call{Node: n, From: p.From, seq: h.Seq, start: start}, track: track}, msg, false)
		return nil
	}
	cs, ok := c.site(h.Site)
	if !ok {
		return unresolved(fmt.Sprintf("unknown call site %d", h.Site))
	}
	svc, ok := n.lookup(h.Obj)
	if !ok {
		return unresolved(fmt.Sprintf("no object %d on node %d", h.Obj, n.ID))
	}
	method, ok := svc.Methods[cs.Method]
	if !ok {
		return unresolved(fmt.Sprintf("%s has no method %q", svc.Name, cs.Method))
	}
	// The loop is idle between upcalls, so their record is free: the
	// previous upcall's reply has been sent and the record zeroed.
	inv := &n.up
	if !cs.leaf || svc.blocking {
		inv = n.takeRecord()
	}
	inv.call = Call{Node: n, From: p.From, Site: cs, seq: h.Seq, start: start}
	inv.method, inv.track = method, track

	if traced {
		// The span starts at the packet's receive timestamp so the
		// transit and plan-lookup phases measured before it existed still
		// fall inside it.
		sp := n.tracer.StartCallee(cs.Name, cs.Method, p.From, n.ID, h.Seq, p.RecvWall)
		inv.sp = sp
		sp.SetPhase(trace.PhasePlanLookup, lookupStart, trace.Now()-lookupStart)
		sp.SetPhase(trace.PhaseTransit, p.Wall, p.RecvWall-p.Wall)
		sp.SetVirtualTransit(arrival - p.TS)
		if tctx := h.Trace; tctx.TraceID != 0 {
			// Join the caller's sampled trace: this callee span hangs
			// under the caller span of the same (from, seq) call, and
			// the calls the method issues hang under this call at the
			// same hop depth.
			sp.SetTraceIdentity(tctx.TraceID, trace.CallID{}, tctx.Hop)
			inv.call.tctx = tctx
		}
	}
	sp := inv.sp

	// The unmarshaler: take the cached argument graphs (Figure 13's
	// temp_arr guard), deserialize — overwriting them in place when
	// shapes match — and hand the copies to the user code. A
	// deserialization error becomes a remote-exception reply, not a
	// dead receive loop.
	// The callee samples its own audit decision: it guards the donor
	// shapes consumed here and the reply serialization after the method.
	st := &cs.statShards[n.ID]
	inv.audit = c.auditCall()
	if inv.audit {
		st.ClaimChecks.Add(1)
		c.Counters.ClaimChecks.Add(1)
	}
	sp.BeginPhase(trace.PhaseDeserialize)
	args, roots, ops, err := cs.args.read(c, n.ID, st, m, int(h.NArgs), inv.audit, inv.inline[:])
	sp.EndPhase(trace.PhaseDeserialize)
	if err != nil {
		n.rejectCall(inv, fmt.Sprintf("unmarshal: %v", err), errors.Is(err, wire.ErrMalformedFrame))
		if inv == &n.up {
			*inv = invocation{}
		} else {
			n.putRecord(inv)
		}
		return nil
	}
	inv.args, inv.roots = args, roots
	inv.call.start += c.Cost.CostNS(ops)

	if inv == &n.up {
		return inv
	}
	sp.BeginPhase(trace.PhaseDispatch)
	n.dispatch(inv)
	return nil
}

// maxIdleExecutors caps the executors a node keeps parked between
// calls, and the zeroed records on its spare list; the executors a
// burst started beyond it exit when they finish, and the records it
// took beyond it are left to the collector.
const maxIdleExecutors = 8

// takeRecord returns a zeroed invocation record from the node's spare
// list, or a new one when the list is empty.
func (n *Node) takeRecord() *invocation {
	select {
	case inv := <-n.spare:
		return inv
	default:
		return new(invocation)
	}
}

// putRecord zeroes inv, whose method has returned and whose reply or
// result no longer reads it, and returns it to the spare list, or drops
// it when the list is full. The list holds memory only: neither take
// nor put blocks, and Close has nothing to balance.
func (n *Node) putRecord(inv *invocation) {
	*inv = invocation{}
	select {
	case n.spare <- inv:
	default:
	}
}

// dispatch hands inv to a parked executor, or starts one ("a new thread
// is created to invoke the user's code", Figure 1) when none is parked.
// It never blocks the receive loop, and running executors are not
// bounded, so nested or re-entrant calls back to this node cannot
// starve.
func (n *Node) dispatch(inv *invocation) {
	select {
	case n.work <- inv:
	default:
		go n.executor(inv)
	}
}

// executor runs invocations, parking between them, until the node
// already holds maxIdleExecutors parked ones or Close closes work.
// Each record goes back to the spare list once its reply is sent. A
// panicking method does not end it: runGuarded turns the panic into a
// reply.
func (n *Node) executor(inv *invocation) {
	for {
		inv.sp.EndPhase(trace.PhaseDispatch)
		n.executeAndReply(inv)
		n.putRecord(inv)
		if n.idle.Add(1) > maxIdleExecutors {
			n.idle.Add(-1)
			return
		}
		inv = <-n.work // nil once Close has closed work
		n.idle.Add(-1)
		if inv == nil {
			return
		}
	}
}

// rejectCall answers a call that failed before the method could run.
// malformed marks a hostile or version-skewed frame the hardened
// decoder rejected: it is counted, answered with the typed
// wire.ReplyMalformed, and its in-flight dedup entry is withdrawn — the
// (from, seq) key came from the same untrusted frame, and leaving it
// cached would let a forged frame swallow an honest retransmit stream.
func (n *Node) rejectCall(inv *invocation, msg string, malformed bool) {
	from, floor, sp := inv.call.From, inv.call.start, inv.sp
	key := dedupKey{from: from, seq: inv.call.seq}
	kind, track := byte(wire.ReplyError), inv.track
	if malformed {
		n.noteMalformed(from)
		if inv.track {
			n.dedupAbort(key)
		}
		kind, track = wire.ReplyMalformed, false
	}
	n.sendFailure(from, inv.call.seq, floor, kind, msg, track, sp)
}

// executeAndReply runs the user method, returns the cached argument
// graphs to the call site, and ships the reply. A panic in user code is
// converted into a remote-exception reply carrying the callee's stack.
func (n *Node) executeAndReply(inv *invocation) {
	c := n.cluster
	call, cs, sp := &inv.call, inv.call.Site, inv.sp
	from, seq, track := call.From, call.seq, inv.track
	sp.BeginPhase(trace.PhaseExecute)
	rets, err := runGuarded(inv.method, call, inv.args)
	sp.EndPhase(trace.PhaseExecute)
	cs.args.recycle(n.ID, inv.args, inv.roots)
	// The reply leaves no earlier than the invocation's own progress
	// (start + the CPU time the method reported) and no earlier than
	// the communication processor's current time; marshaling advances
	// the latter.
	done := call.start + call.computed
	if err != nil {
		// A panic is one of the flight recorder's auto-dump triggers;
		// sendFailure closes the span first, so the dump includes it.
		n.sendFailure(from, seq, done, wire.ReplyError, err.Error(), track, sp)
		c.tracer.DumpFailure("panic")
		return
	}

	sp.BeginPhase(trace.PhaseReplySerialize)
	st := &cs.statShards[n.ID]
	m := wire.Get()
	var marshalNS int64
	if cs.ignoreRet && cs.cfg.Mode == serial.ModeSite {
		// §3.1: the return value is ignored at this call site — send a
		// small acknowledgment instead of serializing it.
		wire.AppendReplyHeader(m, seq, wire.ReplyAck)
		c.Counters.AcksOnly.Add(1)
	} else {
		wire.AppendReplyHeader(m, seq, wire.ReplyValues)
		m.AppendInt32(int32(len(rets)))
		ops, werr := cs.rets.write(c, st, m, rets, inv.audit)
		if werr != nil {
			m.Release()
			n.sendFailure(from, seq, done, wire.ReplyError, fmt.Sprintf("marshal return: %v", werr), track, sp)
			return
		}
		marshalNS = c.Cost.CostNS(ops)
	}
	st.WireBytes.Add(int64(m.Len()))
	n.sendReply(from, seq, done+marshalNS, m, track, sp)
}

// sendReply seals the reply in place and ships the frame, recording a
// private copy in the dedup cache (tracked calls only) so a
// retransmitted call is answered without re-execution. It consumes m,
// and closes the callee span (when one exists) before the frame leaves:
// once the caller holds the reply, the span is already in the trace
// store, so neither a test nor /traces/<id> can read the trace short
// of it. Every sp handed in must have PhaseReplySerialize begun.
func (n *Node) sendReply(to int, seq, ts int64, m *wire.Message, track bool, sp *trace.Span) {
	m.SealFrame()
	sp.EndPhase(trace.PhaseReplySerialize)
	frame := m.Detach()
	if track {
		cp := wire.GetBuf(len(frame))
		copy(cp, frame)
		n.dedupComplete(dedupKey{from: to, seq: seq}, cp, ts)
	}
	pkt := transport.Packet{To: to, TS: ts, Payload: frame}
	if sp != nil {
		pkt.Wall = trace.Now()
	}
	sp.End()
	_ = n.send(pkt)
}

// sendFailure answers a call that produced no values: kind is
// wire.ReplyError for a remote exception, or wire.ReplyMalformed for a
// frame the decoder rejected, so the caller surfaces a typed
// ErrMalformedFrame instead. Callers never track a malformed reply: the
// dedup cache must hold nothing keyed by fields of an untrusted frame.
func (n *Node) sendFailure(to int, seq, floor int64, kind byte, msg string, track bool, sp *trace.Span) {
	sp.Fail(msg)
	sp.BeginPhase(trace.PhaseReplySerialize)
	m := wire.Get()
	wire.AppendReplyHeader(m, seq, kind)
	m.AppendString(msg)
	n.sendReply(to, seq, floor, m, track, sp)
}
