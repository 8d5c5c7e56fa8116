package transport

import (
	"sync"
	"sync/atomic"
	"time"

	"cormi/internal/wire"
)

// FaultRates configures the per-packet fault probabilities of every
// directed node pair. Probabilities are in [0, 1]; zero means the
// fault never fires.
type FaultRates struct {
	Drop    float64 // packet silently discarded
	Dup     float64 // packet delivered twice
	Reorder float64 // packet held back and delivered after a successor
	Corrupt float64 // one payload byte flipped
	DelayNS int64   // max extra virtual latency, uniform in [0, DelayNS]
}

// FaultConfig seeds and configures a FaultyNetwork. The embedded
// FaultRates apply to every directed node pair. All fault decisions
// derive from Seed and a per-pair packet counter, so a given traffic
// pattern sees a reproducible fault sequence.
type FaultConfig struct {
	Seed int64
	FaultRates
}

// Enabled reports whether any fault can ever fire.
func (c FaultConfig) Enabled() bool {
	r := c.FaultRates
	return r.Drop > 0 || r.Dup > 0 || r.Reorder > 0 || r.Corrupt > 0 || r.DelayNS > 0
}

// FaultStats counts the faults a FaultyNetwork injected.
type FaultStats struct {
	Dropped    atomic.Int64
	Duplicated atomic.Int64
	Reordered  atomic.Int64
	Corrupted  atomic.Int64
	Delayed    atomic.Int64
	Blocked    atomic.Int64 // sends black-holed by a partition
}

// PartitionReporter is implemented by networks that can report a node
// pair as partitioned; the RMI layer uses it to turn a deadline expiry
// into ErrPartitioned instead of ErrTimeout.
type PartitionReporter interface {
	Partitioned(from, to int) bool
}

// FaultyNetwork decorates any Network with deterministic, seeded fault
// injection on the send path: drops, duplicates, reordering, payload
// corruption, extra virtual delay, and node partitions. Delay advances
// the packet's virtual timestamp (the simtime cost model turns it into
// arrival time); drop/dup/reorder/corrupt act on real delivery, which
// is what the RMI layer's checksums, retries and dedup must survive.
// Trace wall timestamps (Packet.Wall) ride through unchanged — dup and
// reorder copies keep the original send time, and RecvWall is stamped
// by the inner network's receive side — so traced transit reflects the
// real (including fault-induced) delivery schedule.
type FaultyNetwork struct {
	inner Network
	cfg   FaultConfig
	eps   []*faultyEndpoint

	partMu sync.RWMutex
	part   map[[2]int]bool

	Stats FaultStats
}

// NewFaultyNetwork wraps inner with fault injection.
func NewFaultyNetwork(inner Network, cfg FaultConfig) *FaultyNetwork {
	f := &FaultyNetwork{
		inner: inner,
		cfg:   cfg,
		part:  make(map[[2]int]bool),
	}
	n := inner.Size()
	f.eps = make([]*faultyEndpoint, n)
	for i := 0; i < n; i++ {
		f.eps[i] = &faultyEndpoint{
			net:   f,
			id:    i,
			inner: inner.Endpoint(i),
			seq:   make([]atomic.Uint64, n),
			holds: make([]holdSlot, n),
		}
	}
	return f
}

// Size returns the node count.
func (f *FaultyNetwork) Size() int { return f.inner.Size() }

// Endpoint returns node's fault-injecting attachment.
func (f *FaultyNetwork) Endpoint(node int) Endpoint { return f.eps[node] }

// Close releases held packets and closes the underlying network.
func (f *FaultyNetwork) Close() error {
	for _, ep := range f.eps {
		ep.dropHeld()
	}
	return f.inner.Close()
}

// Partition blocks all traffic between a and b (both directions) until
// Heal. Blocked sends are black-holed, as on a real partitioned link —
// the sender learns nothing.
func (f *FaultyNetwork) Partition(a, b int) {
	f.partMu.Lock()
	f.part[[2]int{a, b}] = true
	f.part[[2]int{b, a}] = true
	f.partMu.Unlock()
}

// Heal removes the partition between a and b.
func (f *FaultyNetwork) Heal(a, b int) {
	f.partMu.Lock()
	delete(f.part, [2]int{a, b})
	delete(f.part, [2]int{b, a})
	f.partMu.Unlock()
}

// Partitioned reports whether traffic from one node to another is
// currently blocked.
func (f *FaultyNetwork) Partitioned(from, to int) bool {
	f.partMu.RLock()
	defer f.partMu.RUnlock()
	return f.part[[2]int{from, to}]
}

// holdFlushDelay bounds how long a reordered packet can be held when no
// successor traffic arrives on its link to release it.
const holdFlushDelay = 2 * time.Millisecond

type holdSlot struct {
	mu     sync.Mutex
	p      *Packet
	timer  *time.Timer
	closed bool // set by dropHeld: nothing is held back after Close
}

type faultyEndpoint struct {
	net   *FaultyNetwork
	id    int
	inner Endpoint
	seq   []atomic.Uint64 // per-destination packet counter
	holds []holdSlot      // per-destination reorder holdback
}

// splitmix64 is the SplitMix64 mixer; it drives all fault decisions so
// they depend only on (seed, from, to, packet index).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a tiny deterministic stream for one packet's fault rolls.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state = splitmix64(r.state)
	return r.state
}

func (r *rng) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		r.next()
		return true
	}
	return float64(r.next()>>11)/(1<<53) < p
}

func (e *faultyEndpoint) Send(p Packet) error {
	f := e.net
	p.From = e.id
	if f.Partitioned(e.id, p.To) {
		f.Stats.Blocked.Add(1)
		wire.PutBuf(p.Payload)
		return nil
	}
	r := f.cfg.FaultRates
	n := e.seq[p.To].Add(1)
	s := rng{state: uint64(f.cfg.Seed) ^ uint64(e.id)<<40 ^ uint64(p.To)<<24 ^ n}

	if s.chance(r.Corrupt) && len(p.Payload) > 0 {
		// Flip a byte in place: Send owns the payload.
		b := p.Payload
		b[int(s.next()%uint64(len(b)))] ^= byte(1 + s.next()%255)
		f.Stats.Corrupted.Add(1)
	}
	if s.chance(r.Drop) {
		f.Stats.Dropped.Add(1)
		wire.PutBuf(p.Payload)
		return nil
	}
	if r.DelayNS > 0 {
		if d := int64(s.next() % uint64(r.DelayNS+1)); d > 0 {
			p.TS += d
			f.Stats.Delayed.Add(1)
		}
	}
	dup := s.chance(r.Dup)
	reorder := s.chance(r.Reorder)

	// Release any packet held back on this link: it goes out after the
	// current one, which is the reordering.
	h := &e.holds[p.To]
	h.mu.Lock()
	held := h.p
	h.p = nil
	if held != nil && h.timer != nil {
		h.timer.Stop()
	}
	if reorder && held == nil && !h.closed {
		// Hold the current packet until the next one on this link (or a
		// failsafe timer, so the last packet of a burst is not stranded).
		cp := p
		h.p = &cp
		h.timer = time.AfterFunc(holdFlushDelay, func() { e.flushHeld(p.To) })
		h.mu.Unlock()
		f.Stats.Reordered.Add(1)
		return nil
	}
	h.mu.Unlock()

	// A duplicate needs its own buffer: each inner Send takes ownership
	// of the payload it is given (it may recycle it once written), so
	// the same slice must never be handed down twice. It is copied here,
	// past the hold branch: a held packet is never duplicated.
	var dupPkt Packet
	if dup {
		b := wire.GetBuf(len(p.Payload))
		copy(b, p.Payload)
		dupPkt = p
		dupPkt.Payload = b
	}

	// Every packet goes down even after a failure (the inner Send is
	// what recycles its payload); the first error is the one reported.
	err := e.inner.Send(p)
	if dup {
		f.Stats.Duplicated.Add(1)
		if derr := e.inner.Send(dupPkt); err == nil {
			err = derr
		}
	}
	if held != nil {
		if herr := e.inner.Send(*held); err == nil {
			err = herr
		}
	}
	return err
}

// flushHeld delivers the packet held back for destination `to`, if any.
func (e *faultyEndpoint) flushHeld(to int) {
	h := &e.holds[to]
	h.mu.Lock()
	p := h.p
	h.p = nil
	h.mu.Unlock()
	if p != nil {
		_ = e.inner.Send(*p)
	}
}

// dropHeld discards held packets (network shutdown).
func (e *faultyEndpoint) dropHeld() {
	for i := range e.holds {
		h := &e.holds[i]
		h.mu.Lock()
		h.closed = true
		if h.p != nil {
			wire.PutBuf(h.p.Payload)
			h.p = nil
		}
		if h.timer != nil {
			h.timer.Stop()
		}
		h.mu.Unlock()
	}
}

func (e *faultyEndpoint) Recv() (Packet, bool) { return e.inner.Recv() }
