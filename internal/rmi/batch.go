package rmi

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cormi/internal/trace"
	"cormi/internal/transport"
	"cormi/internal/wire"
)

// Per-link outbound frame batching.
//
// Small RMI frames — chained-workload calls, bare acknowledgments —
// pay a full physical frame each. The batcher coalesces them: small
// outbound frames to the same peer accumulate in one wire.MsgBatch
// container and flush as a single physical frame when the container
// reaches its byte/count budget or the flush window elapses. Each
// sub-frame keeps its own CRC seal and its own virtual/wall send
// timestamps (wire.AppendBatchEntry), so the receiver's causal
// timeline and per-call tracing are identical to unbatched delivery;
// only the physical frame count changes. Batching is opt-in
// (WithBatching) and per-link capability gated: a peer whose HELLO
// does not advertise wire.CapBatching receives plain frames.
//
// Ownership: enqueue copies the sealed sub-frame into the pooled
// container and immediately returns the caller's buffer to the wire
// pool — the Send-takes-ownership contract holds whether a frame is
// batched or sent directly.

// BatchConfig tunes the per-link batcher. Zero fields take defaults.
type BatchConfig struct {
	// FlushEvery is the maximum time a frame waits in the container
	// before a wall-clock flush (default 100µs).
	FlushEvery time.Duration
	// MaxBytes flushes the container when it reaches this size
	// (default 4096).
	MaxBytes int
	// MaxFrames flushes the container when it holds this many
	// sub-frames (default 16).
	MaxFrames int
	// SmallFrameMax is the largest frame eligible for batching; bigger
	// frames bypass the batcher entirely (default 512).
	SmallFrameMax int
}

func (cfg BatchConfig) withDefaults() BatchConfig {
	if cfg.FlushEvery <= 0 {
		cfg.FlushEvery = 100 * time.Microsecond
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 4096
	}
	if cfg.MaxFrames <= 0 {
		cfg.MaxFrames = 16
	}
	if cfg.MaxFrames > wire.MaxBatchEntries {
		cfg.MaxFrames = wire.MaxBatchEntries
	}
	if cfg.SmallFrameMax <= 0 {
		cfg.SmallFrameMax = 512
	}
	return cfg
}

// WithBatching enables per-link coalescing of small outbound frames
// under the given configuration (zero fields take defaults). Batching
// trades up to cfg.FlushEvery of added latency per small frame for a
// sub-1 physical frames-per-operation wire profile under heavy small-
// call traffic.
func WithBatching(cfg BatchConfig) Option {
	return func(o *clusterOpts) {
		c := cfg.withDefaults()
		o.batch = &c
	}
}

// linkBatcher coalesces one node's small outbound frames to one peer.
type linkBatcher struct {
	n   *Node
	to  int
	cfg BatchConfig
	// site is the tracer pseudo-site ("link.<from>-><to>") flush spans
	// are recorded under, rendered once at construction so the flush
	// path never formats.
	site string

	mu      sync.Mutex
	pending *wire.Message // container under construction; nil when empty
	count   int
	timer   *time.Timer
	stopped bool
	// oldestWall is the wall-clock enqueue time of the pending
	// container's first frame (set only when tracing): the flush span's
	// batch_wait phase measures from it.
	oldestWall int64

	// flushes/batched feed the per-link gauges on /links.
	flushes atomic.Int64
	batched atomic.Int64
}

func newLinkBatcher(n *Node, to int, cfg BatchConfig) *linkBatcher {
	return &linkBatcher{n: n, to: to, cfg: cfg, site: fmt.Sprintf("link.%d->%d", n.ID, to)}
}

// batcherFor routes one outbound frame: the batcher for the peer when
// batching is on, the frame is small enough, and the link negotiated
// wire.CapBatching — nil (send directly) otherwise.
func (n *Node) batcherFor(to, size int) *linkBatcher {
	if n.batchers == nil || to < 0 || to >= len(n.batchers) {
		return nil
	}
	b := n.batchers[to]
	if b == nil || size > b.cfg.SmallFrameMax {
		return nil
	}
	l := n.linkTo(to)
	if l == nil || l.caps&wire.CapBatching == 0 {
		return nil
	}
	return b
}

// send puts one sealed frame on the wire, through the link's batcher
// when the frame qualifies. This is the single choke point every
// outbound frame passes (calls, replies, dedup-cache resends), so
// stats.NetFrames counts physical frames exactly.
func (n *Node) send(pkt transport.Packet) error {
	if b := n.batcherFor(pkt.To, len(pkt.Payload)); b != nil {
		return b.enqueue(pkt)
	}
	n.cluster.Counters.NetFrames.Add(1)
	return n.ep.Send(pkt)
}

// enqueue appends one sealed frame to the pending container, flushing
// on budget. It consumes pkt.Payload (Send-takes-ownership).
func (b *linkBatcher) enqueue(pkt transport.Packet) error {
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		// Cluster is closing; hand the frame to the transport directly
		// (it reports closure and owns the buffer either way).
		b.n.cluster.Counters.NetFrames.Add(1)
		return b.n.ep.Send(pkt)
	}
	if b.pending == nil {
		b.pending = wire.Get()
		b.pending.AppendByte(wire.MsgBatch)
		b.pending.AppendInt32(0) // entry count, patched at flush
		if b.n.tracer != nil {
			b.oldestWall = trace.Now()
		}
		if b.timer == nil {
			b.timer = time.AfterFunc(b.cfg.FlushEvery, b.flush)
		} else {
			b.timer.Reset(b.cfg.FlushEvery)
		}
	}
	wire.AppendBatchEntry(b.pending, pkt.TS, pkt.Wall, pkt.Payload)
	wire.PutBuf(pkt.Payload)
	b.count++
	b.batched.Add(1)
	b.n.cluster.Counters.BatchedFrames.Add(1)
	var err error
	if b.count >= b.cfg.MaxFrames || b.pending.Len() >= b.cfg.MaxBytes {
		err = b.flushLocked()
	}
	b.mu.Unlock()
	return err
}

// flush sends the pending container, if any (timer callback and
// Cluster.FlushBatches entry point).
func (b *linkBatcher) flush() {
	b.mu.Lock()
	_ = b.flushLocked()
	b.mu.Unlock()
}

func (b *linkBatcher) flushLocked() error {
	if b.pending == nil {
		return nil
	}
	m := b.pending
	count := b.count
	b.pending = nil
	b.count = 0
	if b.timer != nil {
		b.timer.Stop()
	}
	binary.LittleEndian.PutUint32(m.Bytes()[1:5], uint32(count))
	m.SealFrame()
	frame := m.Detach()
	c := b.n.cluster
	c.Counters.NetFrames.Add(1)
	c.Counters.BatchFlushes.Add(1)
	b.flushes.Add(1)
	pkt := transport.Packet{To: b.to, TS: b.n.Clock.Now(), Payload: frame}
	if b.n.tracer != nil {
		pkt.Wall = trace.Now()
		// One flush span per container on the link's pseudo-site: its
		// batch_wait phase is how long the oldest coalesced frame sat in
		// the container, the latency cost batching trades for frames.
		b.n.tracer.RecordFlush(b.site, b.n.ID, b.to, count, b.oldestWall)
	}
	return b.n.ep.Send(pkt)
}

// stopBatchers halts every batcher timer and drops pending containers
// (cluster shutdown: the invocations they carried fail with
// ErrClusterClosed regardless).
func (n *Node) stopBatchers() {
	for _, b := range n.batchers {
		if b == nil {
			continue
		}
		b.mu.Lock()
		b.stopped = true
		if b.timer != nil {
			b.timer.Stop()
		}
		if b.pending != nil {
			b.pending.Release()
			b.pending = nil
			b.count = 0
		}
		b.mu.Unlock()
	}
}

// BatchStats sums the cluster's batching activity (for tests and the
// bench harness): logical frames coalesced and containers flushed.
func (c *Cluster) BatchStats() (batched, flushes int64) {
	return c.Counters.BatchedFrames.Load(), c.Counters.BatchFlushes.Load()
}
