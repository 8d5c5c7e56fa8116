// Package serial implements both serializer generations that the paper
// compares:
//
//   - "class" mode (the baseline of KaRMI/Manta): one generated
//     serializer per class, invoked dynamically for every object;
//     per-object type information on the wire; cycle hash-table always
//     created.
//   - "site" mode (the paper's contribution, §3.1): a serialization
//     Plan generated per RMI call site by the compiler
//     (internal/core). Field writes are inlined, statically known
//     referents carry no type information and no dynamic serializer
//     invocation, the cycle table is omitted when the heap analysis
//     proves the argument graphs acyclic (§3.2), and deserialized
//     object graphs are reused across calls when escape analysis
//     permits (§3.3, Figure 13).
//
// All operations are tallied into simtime.OpCount (for the virtual-time
// cost model, returned per message) and stats.Counters (for Tables
// 4/6/8, published once per message when its context is released).
package serial

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cormi/internal/model"
	"cormi/internal/simtime"
	"cormi/internal/slab"
	"cormi/internal/stats"
	"cormi/internal/wire"
)

// Mode selects the serializer generation.
type Mode uint8

const (
	// ModeClass is per-class dynamic serialization (baseline).
	ModeClass Mode = iota
	// ModeSite is per-call-site plan-driven serialization.
	ModeSite
)

// Reference markers on the wire.
const (
	refNull       = 0 // null reference
	refNew        = 1 // object follows, type known from the call site plan
	refHandle     = 2 // int32 handle to a previously transmitted object
	refNewDynamic = 3 // object follows with explicit class ID (class mode
	// or plan fallback for polymorphic references)
)

// writeCtx bundles the write-side state of one message. Contexts are
// pooled: the cycle table keeps its slots across messages (emptied,
// not reallocated), so serializing in steady state creates no
// per-message context garbage.
//
// Statistics are tallied in the context and added to stats.Counters
// once, in putWriteCtx — one atomic add per counter per message
// instead of several per object. The counters that always move in step
// with an OpCount field (TypeOps, SerializerCalls, IntrospectOps,
// CycleTables, CycleLookups) are flushed from ops; the ones with no
// such twin have their own field.
type writeCtx struct {
	m     *wire.Message
	c     *stats.Counters
	ops   simtime.OpCount
	table *ptrTable // nil when cycle detection is eliminated
	wt    ptrTable  // reusable backing storage for table

	typeBytes     int64 // stats TypeBytes
	inlinedWrites int64 // stats InlinedWrites (differs from ops.InlinedWrites)
}

var writeCtxPool = sync.Pool{New: func() any { return new(writeCtx) }}

func getWriteCtx(m *wire.Message, c *stats.Counters) *writeCtx {
	w := writeCtxPool.Get().(*writeCtx)
	w.m, w.c = m, c
	return w
}

// putWriteCtx publishes the message's tally and returns the context,
// emptied, to the pool. Every WriteValues path, error paths included,
// ends here.
func putWriteCtx(w *writeCtx) {
	c := w.c
	flush(&c.TypeBytes, w.typeBytes)
	flush(&c.TypeOps, w.ops.TypeOps)
	flush(&c.SerializerCalls, w.ops.SerializerCalls)
	flush(&c.InlinedWrites, w.inlinedWrites)
	flush(&c.IntrospectOps, w.ops.IntrospectOps)
	flush(&c.CycleTables, w.ops.CycleTables)
	flush(&c.CycleLookups, w.ops.CycleLookups)
	w.wt.release()
	*w = writeCtx{wt: w.wt}
	writeCtxPool.Put(w)
}

// flush adds a message's tally to its shared counter, skipping the
// atomic when the message never touched it.
func flush(c *stats.PaddedInt64, n int64) {
	if n != 0 {
		c.Add(n)
	}
}

// readCtx bundles the read-side state of one message. Contexts are
// pooled: the handles slice and the donors table keep their capacity
// across messages (entries cleared on release so no object graph is
// pinned by the pool). Statistics are flushed once per message in
// putReadCtx, like the write side's; AllocObjects is ops.Allocs.
//
// Every object the message materializes fresh, with its field vector
// or array payload, is carved from the context's slabs. The slabs
// belong to this one message: putReadCtx drops them, so the next
// message starts new chunks and a retained graph pins only the chunks
// of the message that decoded it. With a SlabHint each slab's first
// chunk is the size the hint remembers, so a message shaped like the
// last one on its side pays one chunk per slab.
type readCtx struct {
	objs    slab.Of[model.Object]
	fields  slab.Of[model.Value]
	doubles slab.Of[float64]
	ints    slab.Of[int64]
	refs    slab.Of[*model.Object]

	m       *wire.Message
	reg     *model.Registry
	c       *stats.Counters
	ops     simtime.OpCount
	handles []*model.Object // objects in transmission order, for refHandle
	// classes is the registry's ID table, taken at the message's first
	// class ID (see class).
	classes []*model.Class
	// donors guards the reuse walk: a cached graph may contain sharing
	// (it was itself deserialized from a message with handles), so the
	// same donor object could otherwise be offered to two distinct wire
	// objects and collapse the new graph.
	donors ptrTable
	// budget is the remaining per-frame allocation allowance in bytes
	// (decodeBudgetBase + decodeBudgetPerByte per payload byte). Every
	// object the decoder materializes is charged through allocated();
	// exhaustion poisons the message with a typed ErrMalformedFrame so
	// a small hostile frame cannot commit large memory. Legitimate
	// frames sit far under the budget: decoded bytes are proportional
	// to payload bytes with a small constant.
	budget int64
	// depth is the current reference nesting depth — one per readRef
	// frame plus one per iteration of its trailing-link loop — capped
	// at MaxDecodeDepth to stop stack-exhaustion nesting bombs.
	depth int

	allocBytes  int64 // stats AllocBytes
	reusedObjs  int64 // stats ReusedObjs
	reusedBytes int64 // stats ReusedBytes
}

// Decode budgets. Vars rather than consts so the hardening tests can
// tighten them; the decode hot path reads them once per frame.
var (
	decodeBudgetBase    int64 = 4096 // flat allowance so tiny frames can decode small graphs
	decodeBudgetPerByte int64 = 64   // allowance per payload byte
)

// readCtx pool debug gauges, mirroring the wire buffer pool's: a
// growing Gets-Puts gap means an error path returned without releasing
// its context (and whatever object graph it pinned).
var (
	readCtxGets atomic.Int64
	readCtxPuts atomic.Int64
)

// CtxStats is a snapshot of the read-context pool's debug gauges.
type CtxStats struct {
	Gets        int64
	Puts        int64
	Outstanding int64
}

// ReadCtxStats reports the read-context pool's get/put balance.
func ReadCtxStats() CtxStats {
	g, p := readCtxGets.Load(), readCtxPuts.Load()
	return CtxStats{Gets: g, Puts: p, Outstanding: g - p}
}

var readCtxPool = sync.Pool{New: func() any { return new(readCtx) }}

func getReadCtx(m *wire.Message, reg *model.Registry, c *stats.Counters, h *SlabHint) *readCtx {
	readCtxGets.Add(1)
	rc := readCtxPool.Get().(*readCtx)
	rc.m, rc.reg, rc.c = m, reg, c
	payload := m.Remaining()
	rc.budget = decodeBudgetBase + decodeBudgetPerByte*int64(payload)
	if h != nil {
		// Every carved element costs at least one wire byte (a marker,
		// a field, an array element), so the frame's payload bounds
		// what any slab's first chunk may reserve, whatever the hint.
		rc.objs.Hint(&h.objs, payload)
		rc.fields.Hint(&h.fields, payload)
		rc.doubles.Hint(&h.doubles, payload)
		rc.ints.Hint(&h.ints, payload)
		rc.refs.Hint(&h.refs, payload)
	}
	return rc
}

// SlabHint is one reading side's memory of how many objects, field
// values, doubles, ints and refs its last successfully decoded
// message carved. The next message on the side sizes each slab's first
// chunk from it, clamped to its own payload and the slab's chunk cap,
// so a side whose messages keep their shape pays one chunk per slab
// instead of a doubling series. A message that carves nothing reads
// and writes none of it. The zero value is ready to use and safe for
// concurrent decoders.
type SlabHint struct {
	objs, fields, doubles, ints, refs atomic.Int64
}

// remember records what rc carved, if anything. Stores are skipped
// when a count is unchanged, so concurrent readers of a side whose
// messages keep their shape share the hint's cache line read-only.
func (h *SlabHint) remember(rc *readCtx) {
	n := [...]int{rc.objs.Carved(), rc.fields.Carved(), rc.doubles.Carved(),
		rc.ints.Carved(), rc.refs.Carved()}
	if n == [len(n)]int{} {
		return
	}
	for i, a := range [...]*atomic.Int64{&h.objs, &h.fields, &h.doubles, &h.ints, &h.refs} {
		if int64(n[i]) != a.Load() {
			a.Store(int64(n[i]))
		}
	}
}

// class resolves a class ID through the registry's ID table, taken
// under the registry's lock at the message's first class ID and again
// only for an ID past its end (a class defined since), so a message
// resolves all its class IDs with one lock round trip.
func (rc *readCtx) class(id int32) (*model.Class, bool) {
	if int64(id) >= int64(len(rc.classes)) {
		rc.classes = rc.reg.Classes()
	}
	return model.ClassByID(rc.classes, id)
}

// putReadCtx publishes the message's tally and returns the context,
// emptied, to the pool. Every ReadValues path, error paths included,
// ends here — objects materialized before a rejection stay counted.
func putReadCtx(rc *readCtx) {
	readCtxPuts.Add(1)
	c := rc.c
	flush(&c.AllocObjects, rc.ops.Allocs)
	flush(&c.AllocBytes, rc.allocBytes)
	flush(&c.ReusedObjs, rc.reusedObjs)
	flush(&c.ReusedBytes, rc.reusedBytes)
	clear(rc.handles)
	rc.donors.release()
	*rc = readCtx{handles: rc.handles[:0], donors: rc.donors}
	readCtxPool.Put(rc)
}

// takeDonor claims old as the in-place-overwrite target for one wire
// object, refusing donors of the wrong class or donors already claimed
// this message.
func (rc *readCtx) takeDonor(old *model.Object, class *model.Class) bool {
	if old == nil || old.Class != class {
		return false
	}
	_, taken := rc.donors.lookupOrAdd(old, 0)
	return !taken
}

func (rc *readCtx) register(o *model.Object) {
	if len(rc.handles) >= MaxHandleEntries {
		// Can't return an error from here; poison the message so every
		// further read yields zeros and the top-level decode surfaces
		// the typed error. The half-built graph is dropped with the
		// frame.
		rc.m.Fail(fmt.Errorf("%w: handle table overflow (%d entries, cap %d)",
			wire.ErrMalformedFrame, len(rc.handles)+1, MaxHandleEntries))
		return
	}
	rc.handles = append(rc.handles, o)
}

func (rc *readCtx) resolve(h int32) *model.Object {
	if h < 0 || int(h) >= len(rc.handles) {
		return nil
	}
	return rc.handles[h]
}

// allocated records a deserialization allocation and charges it
// against the frame's allocation budget; exhaustion poisons the
// message with a typed error (see readCtx.budget).
func (rc *readCtx) allocated(o *model.Object) {
	sz := o.SizeBytes()
	rc.budget -= sz
	if rc.budget < 0 {
		rc.m.Fail(fmt.Errorf("%w: frame exceeded its decode allocation budget", wire.ErrMalformedFrame))
	}
	rc.allocBytes += sz
	rc.ops.Allocs++
}

// reused records an in-place reuse of a cached object.
func (rc *readCtx) reused(o *model.Object) {
	rc.reusedObjs++
	rc.reusedBytes += o.SizeBytes()
}
