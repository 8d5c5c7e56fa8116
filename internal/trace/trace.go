// Package trace is the RMI runtime's flight-recorder tracing layer:
// pooled per-call spans keyed by the existing (from, seq) call id,
// covering every lifecycle phase of a remote invocation, a bounded
// ring buffer retaining the most recent spans (the flight recorder),
// per-(site, phase) latency histograms, and a Chrome trace-event
// exporter (chrome.go) whose output loads directly into Perfetto.
//
// The layer is zero-overhead when off: a cluster without a Tracer pays
// one nil check per call and allocates nothing extra. With a Tracer
// attached, spans are recycled through a sync.Pool and phase recording
// is plain stores into the span, so steady-state tracing allocates
// nothing either; only span close touches shared state (lock-free
// histogram adds plus one short ring-buffer critical section).
package trace

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"cormi/internal/metrics"
)

// Phase enumerates the lifecycle phases of one remote invocation. The
// caller records Serialize, Send, WaitReply, ReplyTransit and
// ReplyDeserialize; the callee records PlanLookup, Transit, Dispatch,
// Deserialize, Execute and ReplySerialize. Transit phases are wall
// time derived from the transport's packet timestamps; the virtual
// (cost-model) transit rides the span's VirtualTransitNS field.
type Phase uint8

const (
	// PhasePlanLookup is the callee's call-site/object/method
	// resolution before unmarshaling.
	PhasePlanLookup Phase = iota
	// PhaseSerialize is the caller-side argument marshal (plus frame
	// seal).
	PhaseSerialize
	// PhaseSend is the transport send call on the caller.
	PhaseSend
	// PhaseTransit is the wall-clock call transit, caller send to
	// callee receive (includes transport queueing).
	PhaseTransit
	// PhaseDispatch is the callee-side gap between the receive loop
	// handing the call to an executor goroutine and the method starting
	// (the Go scheduler's dispatch queue).
	PhaseDispatch
	// PhaseDeserialize is the callee-side argument unmarshal,
	// including the §3.3 reuse-cache overwrite path.
	PhaseDeserialize
	// PhaseExecute is the user method body.
	PhaseExecute
	// PhaseReplySerialize is the callee-side reply marshal.
	PhaseReplySerialize
	// PhaseReplyTransit is the wall-clock reply transit, callee send
	// to caller receive.
	PhaseReplyTransit
	// PhaseWaitReply is the caller's wait between (first) send and
	// reply receipt — the full round trip as the caller experiences it,
	// including every retransmit and backoff.
	PhaseWaitReply
	// PhaseReplyDeserialize is the caller-side reply unmarshal.
	PhaseReplyDeserialize

	// NumPhases is the phase count; valid phases are < NumPhases.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"plan_lookup", "serialize", "send", "transit", "dispatch",
	"deserialize", "execute", "reply_serialize", "reply_transit",
	"wait_reply", "reply_deserialize",
}

func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// Kind distinguishes the two halves of a traced call.
type Kind uint8

const (
	// KindCaller marks the invoking side's span.
	KindCaller Kind = iota
	// KindCallee marks the serving side's span.
	KindCallee
)

func (k Kind) String() string {
	if k == KindCaller {
		return "caller"
	}
	return "callee"
}

// Now returns the wall clock used by all spans and packet timestamps:
// nanoseconds since the Unix epoch.
func Now() int64 { return time.Now().UnixNano() }

// SpanRecord is the immutable value copy of a closed span that the
// flight recorder retains and the exporters read. Both halves of one
// call share (From, Seq) — the RMI runtime's call id. The JSON tags
// are the /traces/<id> wire shape, which peers decode verbatim during
// cross-node tree reconstruction.
type SpanRecord struct {
	Site   string `json:"site"`
	Method string `json:"method"`
	From   int    `json:"from"` // invoking node
	To     int    `json:"to"`   // serving node
	Seq    int64  `json:"seq"`
	Kind   Kind   `json:"kind"`
	Start  int64  `json:"start"` // wall ns (trace.Now)
	End    int64  `json:"end"`
	Err    string `json:"err,omitempty"`
	// Retries is the number of retransmissions this call needed
	// (caller span only).
	Retries int `json:"retries,omitempty"`
	// VirtualTransitNS is the cost-model (virtual time) transit of the
	// call message (callee span only).
	VirtualTransitNS int64 `json:"virtual_transit_ns,omitempty"`
	// TraceID names the cross-node trace this span belongs to; zero on
	// unsampled calls (the common case). SpanID is this span's own
	// identity within the trace, ParentID the span that caused it (zero
	// for the root), and Hop the wire-hop distance from the root node.
	// See DESIGN.md §15.
	TraceID  uint64 `json:"trace_id,omitempty"`
	SpanID   uint64 `json:"span_id,omitempty"`
	ParentID uint64 `json:"parent_id,omitempty"`
	Hop      uint8  `json:"hop,omitempty"`
	// PhaseStart/PhaseDur hold each phase's wall start and duration;
	// a zero duration means the phase was not recorded by this half.
	PhaseStart [NumPhases]int64 `json:"phase_start"`
	PhaseDur   [NumPhases]int64 `json:"phase_dur"`
}

// Span is one in-flight traced call half. Spans are pooled: after End
// the span must not be touched. All methods are nil-receiver safe so
// instrumentation sites need a single `tracer != nil` gate, not one
// per phase.
type Span struct {
	SpanRecord
	t *Tracer
}

// BeginPhase stamps the phase's start time.
func (s *Span) BeginPhase(p Phase) {
	if s == nil {
		return
	}
	s.PhaseStart[p] = Now()
}

// EndPhase stamps the phase's duration from its BeginPhase.
func (s *Span) EndPhase(p Phase) {
	if s == nil {
		return
	}
	s.PhaseDur[p] = Now() - s.PhaseStart[p]
}

// SetPhase records a phase from an externally measured (start,
// duration) pair — used for transit phases derived from packet
// timestamps.
func (s *Span) SetPhase(p Phase, start, dur int64) {
	if s == nil {
		return
	}
	if dur < 0 {
		dur = 0
	}
	s.PhaseStart[p] = start
	s.PhaseDur[p] = dur
}

// AddRetry counts one retransmission.
func (s *Span) AddRetry() {
	if s == nil {
		return
	}
	s.Retries++
}

// SetVirtualTransit records the cost-model transit time.
func (s *Span) SetVirtualTransit(ns int64) {
	if s == nil {
		return
	}
	s.VirtualTransitNS = ns
}

// SetTraceIdentity stamps the span's distributed-tracing identity: the
// trace it belongs to, its own span ID, the parent span that caused it
// and its wire-hop distance from the root. A span with a trace ID is
// retained in the tracer's per-trace store on close.
func (s *Span) SetTraceIdentity(traceID, spanID, parentID uint64, hop uint8) {
	if s == nil {
		return
	}
	s.TraceID, s.SpanID, s.ParentID, s.Hop = traceID, spanID, parentID, hop
}

// Fail marks the span failed. The failure classes the flight recorder
// auto-dumps on (timeout, partition, panic) additionally call
// Tracer.DumpFailure.
func (s *Span) Fail(msg string) {
	if s == nil {
		return
	}
	s.Err = msg
}

// End closes the span: phase durations feed the per-(site, phase)
// histograms, the record enters the flight-recorder ring, and the span
// returns to the pool. The caller must not touch s afterwards.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.SpanRecord.End = Now()
	s.t.close(s)
}

// Config configures a Tracer.
type Config struct {
	// RingSize bounds the flight recorder (default 2048 spans).
	RingSize int
	// FailureDump, when non-nil, receives a Chrome-trace JSON dump of
	// the flight recorder each time DumpFailure fires (timeouts,
	// partitions, panics), so a chaos failure always comes with its
	// recent history. Writes are serialized by the tracer.
	FailureDump io.Writer
	// MaxDumps bounds the auto-dumps per tracer (default 4) so a
	// failure storm cannot flood the sink.
	MaxDumps int
	// SampleEvery arms head-based trace sampling: every SampleEvery-th
	// root call (a remote invocation with no inherited trace context)
	// allocates a trace ID that then propagates on the wire through
	// every downstream hop. Zero — the default — disables distributed
	// tracing entirely; per-call spans and attribution still run. The
	// decision is a deterministic counter, not an RNG, so the unsampled
	// hot path pays one atomic add and allocates nothing.
	SampleEvery int64
}

// siteState is everything the tracer tracks per call site: the
// per-phase latency histograms, whose sums are also the site's blame
// (SiteAttribution.TopBlame), and the caller-observed total-latency
// histogram. Span close touches it with one lock-free map read plus
// plain atomic adds — no allocation, no locks.
type siteState struct {
	hists [NumPhases]*metrics.Histogram
	// total is the caller-observed end-to-end latency (full span wall
	// time of KindCaller spans), the distribution cluster quantiles
	// derive from.
	total *metrics.Histogram
}

// Tracer owns the span pool, the per-site histograms and the flight
// recorder. A nil *Tracer is a valid "tracing off" value: StartCaller
// and StartCallee return nil spans whose methods are no-ops.
type Tracer struct {
	cfg      Config
	reg      *metrics.Registry
	fam      *metrics.Family
	totalFam *metrics.Family

	pool sync.Pool
	// sites caches site → siteState so span close does one lock-free
	// map read, not NumPhases label renderings.
	sites sync.Map // string → *siteState

	ringMu sync.Mutex
	ring   []SpanRecord
	ringN  uint64 // total records ever pushed

	spansStarted atomic.Int64
	failures     atomic.Int64
	dumpMu       sync.Mutex
	dumps        int

	// Distributed-tracing state: idBase makes this tracer's trace and
	// span IDs disjoint from other tracers' (each obs node runs its
	// own), sampleTick drives the deterministic head-sampling decision,
	// and store retains the sampled spans per trace ID.
	idBase     uint64
	sampleTick atomic.Int64
	traceSeq   atomic.Uint64
	spanSeq    atomic.Uint64
	store      *traceStore
}

// New creates a tracer.
func New(cfg Config) *Tracer {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 2048
	}
	if cfg.MaxDumps <= 0 {
		cfg.MaxDumps = 4
	}
	reg := metrics.NewRegistry()
	t := &Tracer{
		cfg:      cfg,
		reg:      reg,
		fam:      reg.Family("cormi_phase_latency_ns", "per call-site, per-phase RMI latency in nanoseconds"),
		totalFam: reg.Family("cormi_call_latency_ns", "per call-site caller-observed end-to-end RMI latency in nanoseconds"),
		ring:     make([]SpanRecord, cfg.RingSize),
		idBase:   newIDBase(),
		store:    newTraceStore(),
	}
	t.pool.New = func() any { return new(Span) }
	return t
}

// tracerSeq distinguishes tracers created within the same clock tick,
// so their ID bases never coincide even in one process.
var tracerSeq atomic.Uint64

// newIDBase derives a well-mixed per-tracer 64-bit base for trace and
// span IDs. Uniqueness across tracers (and across nodes of a real
// deployment) is probabilistic — the tree assembler tolerates
// collisions — so a mixed timestamp is enough; no RNG dependency.
func newIDBase() uint64 {
	return mix64(uint64(time.Now().UnixNano()) + tracerSeq.Add(1)*0x9E3779B97F4A7C15)
}

// mix64 is the splitmix64 finalizer: a cheap bijective scrambler.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// SampleTrace makes the head-based sampling decision for one root call
// and returns the new trace ID, or zero when the call is not sampled
// (including whenever sampling is disarmed or the tracer is nil). The
// unsampled path is one atomic add and a branch — no allocation.
func (t *Tracer) SampleTrace() uint64 {
	if t == nil || t.cfg.SampleEvery <= 0 {
		return 0
	}
	if (t.sampleTick.Add(1)-1)%t.cfg.SampleEvery != 0 {
		return 0
	}
	id := mix64(t.idBase ^ t.traceSeq.Add(1))
	if id == 0 {
		id = 1
	}
	return id
}

// NextSpanID allocates a span ID unique within this tracer and — by
// the mixed per-tracer base — disjoint from other tracers' with
// overwhelming probability. Called only on sampled spans.
func (t *Tracer) NextSpanID() uint64 {
	if t == nil {
		return 0
	}
	id := mix64(t.idBase + t.spanSeq.Add(1))
	if id == 0 {
		id = 1
	}
	return id
}

// Registry returns the metrics registry the tracer records into.
func (t *Tracer) Registry() *metrics.Registry { return t.reg }

// SpansStarted returns the number of spans opened so far.
func (t *Tracer) SpansStarted() int64 { return t.spansStarted.Load() }

// Failures returns the number of failed spans closed so far.
func (t *Tracer) Failures() int64 { return t.failures.Load() }

func (t *Tracer) start(site, method string, from, to int, seq int64, kind Kind, startWall int64) *Span {
	if t == nil {
		return nil
	}
	t.spansStarted.Add(1)
	s := t.pool.Get().(*Span)
	s.SpanRecord = SpanRecord{
		Site: site, Method: method, From: from, To: to, Seq: seq,
		Kind: kind, Start: startWall,
	}
	s.t = t
	return s
}

// StartCaller opens the invoking side's span. Returns nil (a no-op
// span) on a nil tracer.
func (t *Tracer) StartCaller(site, method string, from, to int, seq int64) *Span {
	return t.start(site, method, from, to, seq, KindCaller, Now())
}

// StartCallee opens the serving side's span with an explicit start
// time (the packet's receive timestamp, so transit and plan lookup
// measured before the span existed still fit inside it).
func (t *Tracer) StartCallee(site, method string, from, to int, seq, startWall int64) *Span {
	if startWall == 0 {
		startWall = Now()
	}
	return t.start(site, method, from, to, seq, KindCallee, startWall)
}

// site returns the state for a call site, creating and caching it on
// first use.
func (t *Tracer) site(name string) *siteState {
	if v, ok := t.sites.Load(name); ok {
		return v.(*siteState)
	}
	st := &siteState{total: t.totalFam.Series(fmt.Sprintf("site=%q", name))}
	for p := Phase(0); p < NumPhases; p++ {
		st.hists[p] = t.fam.Series(fmt.Sprintf("site=%q,phase=%q", name, p))
	}
	v, _ := t.sites.LoadOrStore(name, st)
	return v.(*siteState)
}

// blamable reports whether a phase is a leaf of the call timeline for
// attribution purposes. PhaseWaitReply is the caller's whole round
// trip — a container over transit, dispatch, execute and the reply
// legs — so counting it would blame "waiting" for every call. Its
// histogram is kept, but TopBlame leaves it out; the leaf phases
// partition the wait it covers.
func blamable(p Phase) bool {
	return p != PhaseWaitReply
}

func (t *Tracer) close(s *Span) {
	st := t.site(s.Site)
	for p, d := range s.PhaseDur {
		if d > 0 {
			st.hists[p].Observe(d)
		}
	}
	if s.Err != "" {
		t.failures.Add(1)
	}
	// Caller spans carry the end-to-end latency the user saw.
	if s.Kind == KindCaller {
		st.total.Observe(s.SpanRecord.End - s.SpanRecord.Start)
	}

	t.ringMu.Lock()
	t.ring[t.ringN%uint64(len(t.ring))] = s.SpanRecord
	t.ringN++
	t.ringMu.Unlock()

	// Sampled spans are additionally retained per trace ID so the
	// /traces endpoints can reconstruct the cross-node call tree. Only
	// spans carrying a trace ID pay this (head sampling made that
	// decision at the root); buckets are recycled across evictions.
	if s.TraceID != 0 {
		t.store.insert(&s.SpanRecord)
	}

	*s = Span{} // clear strings and stale phases before pooling
	t.pool.Put(s)
}

// Recent returns the flight recorder's contents, oldest first. The
// slice is a private copy.
func (t *Tracer) Recent() []SpanRecord {
	t.ringMu.Lock()
	defer t.ringMu.Unlock()
	n := t.ringN
	size := uint64(len(t.ring))
	count := n
	if count > size {
		count = size
	}
	out := make([]SpanRecord, 0, count)
	for i := n - count; i < n; i++ {
		out = append(out, t.ring[i%size])
	}
	return out
}

// DumpFailure writes a Chrome-trace dump of the flight recorder to the
// configured FailureDump sink, tagged with the failure reason. It is
// called by the RMI runtime on ErrTimeout, ErrPartitioned and user
// method panics; at most MaxDumps dumps are written per tracer.
func (t *Tracer) DumpFailure(reason string) {
	if t == nil || t.cfg.FailureDump == nil {
		return
	}
	t.dumpMu.Lock()
	defer t.dumpMu.Unlock()
	if t.dumps >= t.cfg.MaxDumps {
		return
	}
	t.dumps++
	_ = WriteChrome(t.cfg.FailureDump, Local(t.Recent()), map[string]any{"reason": reason})
}

// phaseIndex returns the index of the phase named name, or
// NumPhases when no phase has that name.
func phaseIndex(name string) int {
	for i, n := range phaseNames {
		if n == name {
			return i
		}
	}
	return len(phaseNames)
}
