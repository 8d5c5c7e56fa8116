package serial

import (
	"math/bits"
	"unsafe"

	"cormi/internal/model"
)

// MaxHandleEntries bounds the receive-side handle table (the mirror of
// the write-side cycle table): the number of objects a single frame
// may register for refHandle back-references. The paper's workloads
// top out at ~100 objects per message (a LinkedList of list_elems
// nodes, an LU block column); 65536 is three orders of magnitude above
// that and still small enough that a hostile frame hitting the cap has
// committed well under the frame's own size in table memory. The
// write side needs no cap: it serializes graphs the local program
// built, and the table grows one entry per real object. The read side
// enforces the cap in readCtx.register — a frame that overflows it is
// rejected with wire.ErrMalformedFrame.
const MaxHandleEntries = 1 << 16

// ptrTable is the identity table of both walkers: open-addressed,
// power-of-two slots, linear probing, keyed by object address. On the
// write side it is the serializer's cycle-detection hash-table —
// every object already written maps to its transmission index, so
// re-encounters become handles instead of infinite recursion; creating
// it, inserting every reference and looking references up is exactly
// the overhead the paper's §3.2 optimization removes when the heap
// analysis proves the argument graph acyclic. On the read side it is
// the set of reuse donors already claimed by this message.
//
// A table lives in its pooled context, not on the objects (nothing is
// stamped on model.Object, so concurrent writers may share a graph),
// and release empties it before the context returns to the pool so the
// pool pins no object graph. Hashing the address is sound because Go's
// collector does not move heap objects.
type ptrTable struct {
	slots []ptrSlot // len is 0 or a power of two
	n     int       // occupied slots; on the write side also the next handle
	shift uint8     // 64 - log2(len(slots)): hash bits -> slot index
}

type ptrSlot struct {
	key *model.Object
	val int32
}

const (
	// ptrTableMinSlots is the first allocation: room for 32 objects
	// before the first growth, the paper's messages need two.
	ptrTableMinSlots = 64
	// ptrTableKeepSlots is the size up to which a released table is
	// always kept: clearing it costs at most 16 KiB of memclr. A bigger
	// table is kept only while the messages using it fill an eighth of
	// it, so one huge message does not leave every later small one
	// clearing megabytes.
	ptrTableKeepSlots = 1024
)

func ptrHash(o *model.Object) uint64 {
	// Fibonacci hashing: the multiply spreads the (aligned, clustered)
	// address bits into the high bits the shift keeps.
	return uint64(uintptr(unsafe.Pointer(o))) * 0x9E3779B97F4A7C15
}

// lookupOrAdd returns the value stored under o, or stores v under o
// and reports !found. o must not be nil.
func (t *ptrTable) lookupOrAdd(o *model.Object, v int32) (val int32, found bool) {
	if 2*t.n >= len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := int(ptrHash(o) >> t.shift); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.key == o {
			return s.val, true
		}
		if s.key == nil {
			s.key, s.val = o, v
			t.n++
			return v, false
		}
	}
}

// grow doubles the table (or makes the first one) and re-inserts the
// occupied slots, keeping the load under one half.
func (t *ptrTable) grow() {
	old := t.slots
	size := ptrTableMinSlots
	if len(old) > 0 {
		size = 2 * len(old)
	}
	t.slots = make([]ptrSlot, size)
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, e := range old {
		if e.key == nil {
			continue
		}
		i := int(ptrHash(e.key) >> t.shift)
		for t.slots[i].key != nil {
			i = (i + 1) & mask
		}
		t.slots[i] = e
	}
}

// release empties the table for the next message. A large table this
// message left mostly empty is dropped instead of cleared (see
// ptrTableKeepSlots).
func (t *ptrTable) release() {
	if t.n == 0 {
		return
	}
	if len(t.slots) > ptrTableKeepSlots && 8*t.n < len(t.slots) {
		*t = ptrTable{}
		return
	}
	clear(t.slots)
	t.n = 0
}
