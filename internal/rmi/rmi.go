// Package rmi is the remote-method-invocation runtime: a cluster of
// nodes connected by a transport, remote object references, and
// per-call-site stubs. It reimplements the JavaParty/Manta runtime
// behavior the paper relies on:
//
//   - a generated marshaler serializes arguments and sends them to the
//     callee, where an unmarshaler reconstitutes copies and invokes the
//     user code in a fresh thread (Figure 1);
//   - node-local calls deep-clone arguments and results so parameter
//     passing semantics do not depend on object placement;
//   - one receiver drains a node's network at a time (the paper's
//     unmarshaler lock): each node has one receive loop, its only
//     decoder;
//   - callee-side argument caches and caller-side return-value caches
//     implement the object-reuse optimization with the take/put guard
//     of Figure 13.
//
// Virtual time: every node has a simtime.Clock; marshaling,
// unmarshaling, allocation and message flight advance the clocks
// through the cluster's cost model, so Cluster.MaxTime is the virtual
// makespan that the benchmark tables report.
package rmi

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cormi/internal/model"
	"cormi/internal/simtime"
	"cormi/internal/stats"
	"cormi/internal/trace"
	"cormi/internal/transport"
	"cormi/internal/wire"
)

// OptLevel names the five optimization configurations evaluated in the
// paper's tables.
type OptLevel int

const (
	// LevelClass is per-class serialization (the baseline).
	LevelClass OptLevel = iota
	// LevelSite enables call-site-specific serializers (§3.1).
	LevelSite
	// LevelSiteCycle adds static cycle-detection elimination (§3.2).
	LevelSiteCycle
	// LevelSiteReuse adds argument/return-value reuse (§3.3).
	LevelSiteReuse
	// LevelSiteReuseCycle enables all optimizations.
	LevelSiteReuseCycle
)

// AllLevels lists the configurations in table order.
var AllLevels = []OptLevel{LevelClass, LevelSite, LevelSiteCycle, LevelSiteReuse, LevelSiteReuseCycle}

func (l OptLevel) String() string {
	switch l {
	case LevelClass:
		return "class"
	case LevelSite:
		return "site"
	case LevelSiteCycle:
		return "site + cycle"
	case LevelSiteReuse:
		return "site + reuse"
	case LevelSiteReuseCycle:
		return "site + reuse + cycle"
	default:
		return fmt.Sprintf("OptLevel(%d)", int(l))
	}
}

// Config returns the serializer configuration for this level.
func (l OptLevel) Config() Config {
	switch l {
	case LevelClass:
		return Config{}
	case LevelSite:
		return Config{Site: true}
	case LevelSiteCycle:
		return Config{Site: true, CycleElim: true}
	case LevelSiteReuse:
		return Config{Site: true, Reuse: true}
	default:
		return Config{Site: true, CycleElim: true, Reuse: true}
	}
}

// Config mirrors serial.Config at the RMI layer.
type Config struct {
	Site      bool
	CycleElim bool
	Reuse     bool
}

// Ref identifies an exported remote object.
type Ref struct {
	Node int
	Obj  int64
}

// Method is the implementation of one remotely invokable method. It
// receives deserialized argument copies and returns the values to ship
// back. One rule holds on every path: call and the args slice live in
// a record the runtime reuses, so they are valid until the method
// returns. A method may return args itself (the runtime is done with
// the result before it reuses the record), but may keep neither call
// nor args past its return; the argument objects keep §3.3 semantics.
// A call through a leaf call site (SiteSpec.Leaf) runs as an upcall on
// the callee's receive loop, and the method must then neither issue a
// call through call (ErrUpcallBlocked) nor block on anything only
// another call could release. Every other remote call runs on an
// executor goroutine of its own (the paper's "new thread is created to
// invoke the user's code"), parked and reused between calls; a
// node-local call runs on its caller's goroutine.
type Method func(call *Call, args []model.Value) []model.Value

// Service is a remotely invokable object: a named method table.
type Service struct {
	Name    string
	Methods map[string]Method

	// blocking marks the runtime's own services whose methods wait for
	// other calls to arrive (NewBarrierService). Their calls always run
	// on an executor, whatever the site's leaf verdict: the calls that
	// release them arrive on the receive loop an upcall would hold.
	blocking bool
}

// Call carries per-invocation context into a Method. It lives in a
// reused record, so a Method must not keep it past its return (see
// Method).
type Call struct {
	// Node is the node executing the method.
	Node *Node
	// From is the id of the invoking node.
	From int
	// Site is the call site that produced this invocation.
	Site *CallSite
	// seq is the invoking node's sequence number for this call: with
	// From, the call's id, which the calls the method issues name as
	// their trace parent.
	seq int64

	// start is the invocation's virtual start time (arrival +
	// dispatch + unmarshal) and computed the CPU/wait time the method
	// reported; together they floor the reply timestamp.
	start    int64
	computed int64

	// tctx is the invocation's distributed-trace inheritance handle
	// (zero when the call was not sampled): the trace ID and this hop's
	// depth. Nested calls issued from this Call join the caller's
	// cross-node call tree under (From, seq).
	tctx wire.TraceContext
}

// upcalled reports whether c runs on its node's receive loop, in the
// loop's reusable record: issuing a call through it then panics with
// ErrUpcallBlocked. The record's address is the flag,
// so executor records stay in their size class.
func (c *Call) upcalled() bool { return c == &c.Node.up.call }

// Compute advances the executing node's virtual clock by ns
// nanoseconds, modeling the method's own CPU work.
func (c *Call) Compute(ns int64) {
	c.Node.Clock.Advance(ns)
	c.computed += ns
}

// Start returns the invocation's virtual start time.
func (c *Call) Start() int64 { return c.start }

// WaitUntil raises the invocation's completion floor to ts without
// charging CPU time — condition waits (e.g. a barrier's release) delay
// the reply but burn no cycles.
func (c *Call) WaitUntil(ts int64) {
	if d := ts - (c.start + c.computed); d > 0 {
		c.computed += d
	}
}

// Cluster is a set of nodes sharing a transport, a class registry, a
// cost model and a statistics block.
type Cluster struct {
	Registry *model.Registry
	Counters *stats.Counters
	Cost     simtime.CostModel

	net   transport.Network
	owns  bool // whether Close should close the network
	nodes []*Node

	policy   CallPolicy
	dedupCap int
	// faulty records that the interconnect can duplicate packets on its
	// own. With a fault-free network and a non-retrying call policy,
	// duplicate call delivery is impossible, so the callee skips dedup
	// bookkeeping entirely on that hot path.
	faulty bool

	// tracer is the observability layer (nil = tracing off, the
	// default). With a tracer attached, every remote invocation opens
	// pooled caller/callee spans keyed by (from, seq) and the flight
	// recorder auto-dumps on timeouts, partitions and panics. Disabled
	// tracing costs one nil check per call and zero allocations.
	tracer *trace.Tracer

	// claimEvery > 0 enables audit mode: every claimEvery-th
	// invocation (cluster-wide, counted by claimTick) re-verifies the
	// compile-time claims the optimizer acted on. Zero — the default —
	// costs one predictable branch per call.
	claimEvery int64
	claimTick  atomic.Int64

	// skew holds the nodes that state another program's digest (the
	// tests' WithPlanSkew): their HELLOs disagree with every peer's, so
	// each link to or from them is refused. nil in
	// production-shaped clusters.
	skew map[int]bool

	// fpOnce guards the one registry digest pass shared by every link
	// negotiation: model.Class.AllFields caches lazily, so the
	// flattening must not race when several links negotiate at once.
	fpOnce sync.Once
	digest uint64

	siteMu sync.RWMutex
	sites  []*CallSite

	closed atomic.Bool
	done   chan struct{} // closed by Close; unblocks blocking services
	wg     sync.WaitGroup
}

// Option configures a cluster.
type Option func(*clusterOpts)

type clusterOpts struct {
	net         transport.Network
	owns        bool
	registry    *model.Registry
	policy      CallPolicy
	faults      *transport.FaultConfig
	dedupCap    int
	tracer      *trace.Tracer
	claimEvery  int64
	skew        map[int]bool
	nodeTracers map[int]*trace.Tracer
}

// channelDepth is each node's inbox depth on the default in-process
// channel network.
const channelDepth = 1024

// WithNetwork runs the cluster over an externally created network
// (e.g. TCP); the cluster still closes it on Close.
func WithNetwork(n transport.Network) Option {
	return func(o *clusterOpts) { o.net = n; o.owns = true }
}

// WithRegistry shares a class registry with the caller.
func WithRegistry(r *model.Registry) Option {
	return func(o *clusterOpts) { o.registry = r }
}

// WithCallPolicy sets the cluster-wide default deadline/retry policy
// for remote invocations (per-site overrides via
// CallSite.SetCallPolicy).
func WithCallPolicy(p CallPolicy) Option {
	return func(o *clusterOpts) { o.policy = p }
}

// WithFaults wraps the cluster's network — the default channel network
// or one supplied via WithNetwork — in a transport.FaultyNetwork with
// the given seeded fault configuration (chaos mode).
func WithFaults(cfg transport.FaultConfig) Option {
	return func(o *clusterOpts) { o.faults = &cfg }
}

// WithTracer attaches an observability tracer: per-call spans, phase
// latency histograms and the flight recorder (internal/trace). A nil
// tracer leaves tracing off. Tracers are cluster-agnostic and may be
// shared across clusters; call sites are keyed by name.
func WithTracer(t *trace.Tracer) Option {
	return func(o *clusterOpts) { o.tracer = t }
}

// WithNodeTracer gives one node its own tracer, overriding the
// cluster-wide WithTracer default for spans that node records (caller
// spans of calls it issues, callee spans of calls it serves). An
// in-process cluster standing in for N machines uses this to give each
// "machine" its own flight recorder and trace store, so the /traces
// cross-node reconstruction exercises genuinely separate stores.
func WithNodeTracer(node int, t *trace.Tracer) Option {
	return func(o *clusterOpts) {
		if o.nodeTracers == nil {
			o.nodeTracers = make(map[int]*trace.Tracer)
		}
		o.nodeTracers[node] = t
	}
}

// ClaimCheckPolicy configures the audit-mode claim checker. On every
// Every-th invocation, cluster-wide, the runtime re-verifies the
// compile-time claims the optimizer acted on: the §3.2 acyclicity
// claim before serializing without a cycle table (a refuted claim
// falls back to the table, wire-compatibly) and the §3.3 donor-shape
// claim before overwriting a cached graph (a mismatched donor is
// dropped so the reader allocates fresh). Each refutation increments
// the ClaimViolations counters and triggers a flight-recorder dump.
// Every <= 0 disables checking (the default); Every == 1 audits every
// call. Sampling is a deterministic counter, not an RNG, so runs are
// reproducible.
type ClaimCheckPolicy struct {
	Every int64
}

// WithClaimCheck enables sampled runtime verification of compile-time
// optimizer claims (audit mode, off by default).
func WithClaimCheck(p ClaimCheckPolicy) Option {
	return func(o *clusterOpts) { o.claimEvery = p.Every }
}

// WithPlanSkew makes node state a salted registry digest in its HELLO,
// as a node compiled from a different program would. Every link to or
// from it is refused at HELLO time: its calls fail with ErrPlanMismatch. It is a test seam; production
// clusters share one program.
func WithPlanSkew(node int) Option {
	return func(o *clusterOpts) {
		if o.skew == nil {
			o.skew = make(map[int]bool)
		}
		o.skew[node] = true
	}
}

// New creates a cluster of n nodes (default: in-process channel
// network) and starts their receive loops. It panics when n < 1.
func New(n int, opts ...Option) *Cluster {
	if n < 1 {
		panic(fmt.Sprintf("rmi: a cluster needs at least one node, got %d", n))
	}
	o := clusterOpts{dedupCap: 4096}
	for _, f := range opts {
		f(&o)
	}
	if o.net == nil {
		o.net = transport.NewChannelNetwork(n, channelDepth)
		o.owns = true
	}
	if o.faults != nil {
		o.net = transport.NewFaultyNetwork(o.net, *o.faults)
	}
	if o.registry == nil {
		o.registry = model.NewRegistry()
	}
	_, faulty := o.net.(*transport.FaultyNetwork)
	c := &Cluster{
		Registry:   o.registry,
		Counters:   &stats.Counters{},
		Cost:       simtime.DefaultCostModel(),
		net:        o.net,
		owns:       o.owns,
		policy:     o.policy,
		dedupCap:   o.dedupCap,
		faulty:     faulty,
		tracer:     o.tracer,
		claimEvery: o.claimEvery,
		skew:       o.skew,
		done:       make(chan struct{}),
	}
	c.nodes = make([]*Node, n)
	for i := 0; i < n; i++ {
		c.nodes[i] = newNode(c, i)
		if t, ok := o.nodeTracers[i]; ok {
			c.nodes[i].tracer = t
		}
	}
	for _, nd := range c.nodes {
		c.wg.Add(1)
		go nd.recvLoop(&c.wg)
	}
	return c
}

// Size returns the node count.
func (c *Cluster) Size() int { return len(c.nodes) }

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Network returns the cluster's interconnect. Callers running in chaos
// mode can type-assert it to *transport.FaultyNetwork to partition and
// heal links or read fault statistics.
func (c *Cluster) Network() transport.Network { return c.net }

// CallPolicy returns the cluster-wide default invocation policy.
func (c *Cluster) CallPolicy() CallPolicy { return c.policy }

// Done is closed when the cluster shuts down. Long-blocking service
// methods (barriers, queues) select on it so Close can never leave a
// method goroutine — or a local caller — waiting forever.
func (c *Cluster) Done() <-chan struct{} { return c.done }

// Close shuts the cluster down, answering each waiter on the channel it
// waits on. Once the network close has stopped the receive loops (the
// only senders on work), failPending sends ErrClusterClosed to every
// registered call (startRemote registers none after it), work is
// closed under the parked executors and the reply cache is emptied.
func (c *Cluster) Close() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	close(c.done)
	c.net.Close()
	c.wg.Wait()
	for _, n := range c.nodes {
		n.failPending()
		close(n.work)
		n.dropDedup()
	}
}

// MaxTime returns the virtual makespan: the maximum node clock.
func (c *Cluster) MaxTime() int64 {
	var max int64
	for _, n := range c.nodes {
		if t := n.Clock.Now(); t > max {
			max = t
		}
	}
	return max
}

// auditCall decides whether this invocation is claim-checked: a
// 1-in-claimEvery counter sample — deterministic, no RNG on the hot
// path, and a single predictable branch when auditing is off.
func (c *Cluster) auditCall() bool {
	if c.claimEvery <= 0 {
		return false
	}
	return c.claimTick.Add(1)%c.claimEvery == 0
}

// SiteStats snapshots the per-call-site runtime counters, one row per
// site name in the order the names were first registered. Sites that
// share a name (one textual call site registered at several levels)
// are summed into one row, so each name is one label set of the obs
// cormi_site_* series on /metrics.
func (c *Cluster) SiteStats() []stats.SiteStat {
	c.siteMu.RLock()
	defer c.siteMu.RUnlock()
	out := make([]stats.SiteStat, 0, len(c.sites))
	row := make(map[string]int, len(c.sites))
	for _, cs := range c.sites {
		s := cs.Stats()
		if i, ok := row[s.Site]; ok {
			out[i] = out[i].Add(s)
			continue
		}
		row[s.Site] = len(out)
		out = append(out, s)
	}
	return out
}

// PendingCalls is the cluster's backlog, the obs gauge
// cormi_pending_calls: the issued remote invocations still awaiting
// their reply, summed over the nodes' pending tables. Each table is
// read under its own short-lived lock; the sum is consistent per node,
// not across nodes, which is all a monitoring signal needs.
func (c *Cluster) PendingCalls() int64 {
	var pending int64
	for _, n := range c.nodes {
		n.pendMu.Lock()
		pending += int64(len(n.pending))
		n.pendMu.Unlock()
	}
	return pending
}

// Overload is PendingCalls in the shape the bench module reads
// (Overload().PendingCalls); it goes once that module reads
// PendingCalls.
func (c *Cluster) Overload() struct{ PendingCalls int64 } {
	return struct{ PendingCalls int64 }{c.PendingCalls()}
}

func (c *Cluster) site(id int32) (*CallSite, bool) {
	c.siteMu.RLock()
	defer c.siteMu.RUnlock()
	if id < 0 || int(id) >= len(c.sites) {
		return nil, false
	}
	return c.sites[id], true
}

// Node is one machine of the cluster.
type Node struct {
	ID int
	// Clock is the node's CPU clock: application compute, caller-side
	// marshaling and unmarshaling, local-call cloning. Incoming-call
	// serialization is handled by the node's communication processor
	// (the GM poll thread / NIC of the paper's testbed) contention
	// free: its cost rides the reply timestamp — on the requester's
	// critical path — without delaying this node's own computation.
	// This makes the virtual timeline a pure causal critical path,
	// independent of Go scheduler interleavings (deterministic).
	Clock   simtime.Clock
	cluster *Cluster
	ep      transport.Endpoint

	objMu   sync.RWMutex
	objects map[int64]*Service
	nextObj int64

	pendMu  sync.Mutex
	pending map[int64]chan reply
	seq     atomic.Int64
	// chPool recycles the buffered reply channels of completed
	// invocations (channels are pointer-shaped, so pooling them
	// allocates nothing). A channel re-enters the pool only when it is
	// provably empty — see abandonCall.
	chPool sync.Pool

	// The callee-side dedup/reply cache: retransmitted calls (same
	// caller, same sequence number) must not re-execute user methods or
	// touch the §3.3 reuse caches. An in-flight entry swallows the
	// duplicate; a completed entry answers it from the cached reply.
	dedupMu sync.Mutex
	dedup   map[dedupKey]*dedupEntry
	dedupQ  []dedupKey // FIFO eviction order

	// work is the unbuffered hand-off to this node's parked executors,
	// idle how many are parked (see dispatch). Close closes it.
	work chan *invocation
	idle atomic.Int32
	// spare holds zeroed invocation records for executor and node-local
	// calls (takeRecord, putRecord). It holds as many as the node parks
	// executors, each of which returns one per call; records beyond
	// that, from a burst, are left to the collector.
	spare chan *invocation

	// up is the receive loop's one invocation record, reused by every
	// call it runs as an upcall (see handleCall).
	up invocation

	// links holds the lazily negotiated per-peer wire state, one slot
	// per cluster node (see negotiate.go). Each slot initializes at
	// most once, on the first frame exchanged with that peer.
	links []nodeLink

	// tracer records this node's spans: the cluster tracer by default,
	// or a per-node override (WithNodeTracer). nil = tracing off.
	tracer *trace.Tracer
}

// dedupKey identifies one call attempt stream: sequence numbers are
// allocated per caller node.
type dedupKey struct {
	from int
	seq  int64
}

// dedupEntry tracks one call through execution. Until done, the reply
// fields are unset and duplicates are dropped (the original execution
// will answer); after done, duplicates are answered from the cache.
type dedupEntry struct {
	done    bool
	payload []byte // sealed reply frame
	ts      int64  // virtual send timestamp of the reply
}

type reply struct {
	kind byte // wire.Reply*
	// payload is the reply body (header stripped); buf is the full
	// pooled frame backing it, which the invoker returns with
	// wire.PutBuf once the values are deserialized.
	payload []byte
	buf     []byte
	arrival int64
	// sentWall/recvWall are the reply packet's wall-clock transit
	// timestamps (zero when the reply was untraced); the invoker's span
	// derives PhaseReplyTransit from them.
	sentWall, recvWall int64
	err                error
}

// message decodes the string body of an error or malformed reply and
// recycles the frame.
func (r reply) message() string {
	rm := wire.GetReader(r.payload)
	msg := rm.ReadString()
	rm.ReleaseReader()
	wire.PutBuf(r.buf)
	return msg
}

func newNode(c *Cluster, id int) *Node {
	n := &Node{
		ID:      id,
		cluster: c,
		ep:      c.net.Endpoint(id),
		objects: make(map[int64]*Service),
		pending: make(map[int64]chan reply),
		dedup:   make(map[dedupKey]*dedupEntry),
		work:    make(chan *invocation),
		spare:   make(chan *invocation, maxIdleExecutors),
		links:   make([]nodeLink, len(c.nodes)),
		tracer:  c.tracer,
	}
	return n
}

// Cluster returns the owning cluster.
func (n *Node) Cluster() *Cluster { return n.cluster }

// Export publishes a service on this node and returns its remote
// reference. Export order must match across processes in distributed
// (TCP) deployments, exactly like rmic-generated registries.
func (n *Node) Export(svc *Service) Ref {
	n.objMu.Lock()
	defer n.objMu.Unlock()
	id := n.nextObj
	n.nextObj++
	n.objects[id] = svc
	return Ref{Node: n.ID, Obj: id}
}

func (n *Node) lookup(obj int64) (*Service, bool) {
	n.objMu.RLock()
	defer n.objMu.RUnlock()
	s, ok := n.objects[obj]
	return s, ok
}

// send puts one sealed frame on the wire. This is the single choke
// point every outbound frame passes (calls, replies, dedup-cache
// resends), so it counts each exactly once: one physical frame, and the
// frame's bytes short of its checksum as WireBytes.
func (n *Node) send(pkt transport.Packet) error {
	ctr := n.cluster.Counters
	ctr.NetFrames.Add(1)
	ctr.WireBytes.Add(int64(len(pkt.Payload) - wire.ChecksumSize))
	return n.ep.Send(pkt)
}

// getReplyCh returns a recycled (empty) reply channel or makes one.
func (n *Node) getReplyCh() chan reply {
	if v := n.chPool.Get(); v != nil {
		return v.(chan reply)
	}
	return make(chan reply, 1)
}

// putReplyCh recycles a reply channel the caller has proven empty.
func (n *Node) putReplyCh(ch chan reply) { n.chPool.Put(ch) }

// abandonCall cleans up after an invocation that will not consume its
// reply (send failure, timeout, shutdown). The invariant making
// channel recycling safe is that a reply is sent only by whoever
// removes the pending entry — and the send happens *under pendMu,
// before the removal is visible* (see routeReply and failPending). So:
//
//   - if the entry is still pending, abandonCall removes it, no reply
//     can ever land, and the channel is empty — recycle it;
//   - if someone else already removed it, their buffered send
//     completed before they released the lock we just held, so the
//     reply is guaranteed to be in the channel: consume it (frame back
//     to the pool) and recycle the channel.
//
// Either way the channel re-enters the pool and the reply frame, if
// one raced in, re-enters the wire pool — nothing is abandoned to the
// GC no matter how the timeout races the reply.
func (n *Node) abandonCall(seq int64, ch chan reply) {
	n.pendMu.Lock()
	_, present := n.pending[seq]
	if present {
		delete(n.pending, seq)
	}
	n.pendMu.Unlock()
	if !present {
		rep := <-ch
		wire.PutBuf(rep.buf)
	}
	n.putReplyCh(ch)
}

func (n *Node) failPending() {
	n.pendMu.Lock()
	defer n.pendMu.Unlock()
	for seq, ch := range n.pending {
		ch <- reply{err: ErrClusterClosed}
		delete(n.pending, seq)
	}
}

// dedupAdmit decides the fate of an incoming call attempt. It returns
// (nil, true) for a fresh call (an in-flight entry is recorded),
// (entry, false) for a duplicate of a completed call (answer from
// cache), and (nil, false) for a duplicate of an in-flight call (drop;
// the original execution will answer).
func (n *Node) dedupAdmit(key dedupKey) (*dedupEntry, bool) {
	n.dedupMu.Lock()
	defer n.dedupMu.Unlock()
	if e, ok := n.dedup[key]; ok {
		if e.done {
			return e, false
		}
		return nil, false
	}
	if limit := n.cluster.dedupCap; limit > 0 && len(n.dedupQ) >= limit {
		// Evict the oldest completed entry; skip in-flight ones (their
		// reply is still owed) unless everything is in flight. The
		// cache owns its reply copies, so eviction recycles the frame.
		evicted := false
		for i, k := range n.dedupQ {
			if e := n.dedup[k]; e.done {
				wire.PutBuf(e.payload)
				delete(n.dedup, k)
				n.dedupQ = append(n.dedupQ[:i], n.dedupQ[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			delete(n.dedup, n.dedupQ[0])
			n.dedupQ = n.dedupQ[1:]
		}
	}
	n.dedup[key] = &dedupEntry{}
	n.dedupQ = append(n.dedupQ, key)
	return nil, true
}

// dedupComplete stores the call's sealed reply — a private copy the
// cache now owns — so later retransmits are answered without
// re-executing the method. If the entry was evicted (or the call was
// never tracked), the copy goes straight back to the frame pool.
func (n *Node) dedupComplete(key dedupKey, payload []byte, ts int64) {
	n.dedupMu.Lock()
	if e, ok := n.dedup[key]; ok {
		e.done = true
		e.payload = payload
		e.ts = ts
		n.dedupMu.Unlock()
		return
	}
	n.dedupMu.Unlock()
	wire.PutBuf(payload)
}

// dropDedup returns the cached reply frames to the pool (shutdown); a
// method still running recycles its own copy in dedupComplete.
func (n *Node) dropDedup() {
	n.dedupMu.Lock()
	defer n.dedupMu.Unlock()
	for k, e := range n.dedup {
		wire.PutBuf(e.payload)
		delete(n.dedup, k)
	}
	n.dedupQ = nil
}

// dedupAbort withdraws an in-flight dedup entry whose call turned out
// to be undecodable. A malformed frame must never poison the cache: if
// its (from, seq) pair collides with a legitimate retransmit stream —
// trivial for a frame forger — a cached entry would swallow the honest
// retry forever. Aborting leaves the cache exactly as if the frame had
// failed its checksum. Entries that already completed are kept: the
// call executed, so its reply cache is legitimate.
func (n *Node) dedupAbort(key dedupKey) {
	n.dedupMu.Lock()
	defer n.dedupMu.Unlock()
	e, ok := n.dedup[key]
	if !ok || e.done {
		return
	}
	delete(n.dedup, key)
	for i, k := range n.dedupQ {
		if k == key {
			n.dedupQ = append(n.dedupQ[:i], n.dedupQ[i+1:]...)
			break
		}
	}
}
