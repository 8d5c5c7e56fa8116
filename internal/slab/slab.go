// Package slab allocates many small objects per owner instead of one
// by one: n objects of one type cost O(log n) allocations, and the
// collector sees a few pointer-dense chunks instead of n boxes.
//
// A slab has exactly one owner — a parser, an ir.Program, a
// heap.Analysis, or one decoded RMI message (the serial package's read
// context) — and lives as long as anything it handed out is
// referenced. Nothing is ever returned to a slab and no slab is shared
// between owners: a core.Result keeps its AST and IR, and a retained
// decoded graph pins only the chunks of the message that decoded it.
package slab

import (
	"sync/atomic"
	"unsafe"
)

const (
	// firstChunk is small enough that a three-function sketch pays no
	// more bytes than it did with one allocation per object.
	firstChunk = 8
	// maxChunkBytes bounds what the unused tail of the last chunk can
	// waste, whatever the element size.
	maxChunkBytes = 32 << 10
)

// Of hands out zeroed values of T carved from chunks that double in
// size from firstChunk elements (or a hinted size, see Hint) up to
// maxChunkBytes. The zero value is ready to use.
type Of[T any] struct {
	free   []T
	next   int // element count of the next chunk; 0 before the first
	carved int // elements handed out

	hint    *atomic.Int64 // see Hint
	hintMax int
}

// Hint sizes the first chunk from *h instead of firstChunk: an owner
// that carves about as much as an earlier one of its kind pays one
// chunk instead of a doubling series. h is loaded at the first carve
// only, so an owner that carves nothing never reads it; the size is
// clamped to limit elements and to maxChunkBytes, and a hint of 0
// keeps firstChunk. Set it before the first carve.
func (s *Of[T]) Hint(h *atomic.Int64, limit int) {
	s.hint, s.hintMax = h, limit
}

// Carved reports how many elements s has handed out.
func (s *Of[T]) Carved() int { return s.carved }

// New returns a pointer to a zeroed T.
func (s *Of[T]) New() *T {
	if len(s.free) == 0 {
		s.grow(1)
	}
	p := &s.free[0]
	s.free = s.free[1:]
	s.carved++
	return p
}

// Put returns a pointer to a copy of v.
func (s *Of[T]) Put(v T) *T {
	p := s.New()
	*p = v
	return p
}

// Slice returns a zeroed slice of length and capacity n (nil for 0).
// When the current chunk cannot hold n, its tail is abandoned.
func (s *Of[T]) Slice(n int) []T {
	if n == 0 {
		return nil
	}
	if len(s.free) < n {
		s.grow(n)
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	s.carved += n
	return out
}

// Append appends v to dst. A full dst moves to a backing array twice
// the size taken from the slab; an old one that came from the slab is
// abandoned in its chunk.
func (s *Of[T]) Append(dst []T, v T) []T {
	if len(dst) == cap(dst) {
		grown := s.Slice(max(4, 2*cap(dst)))[:len(dst)]
		copy(grown, dst)
		dst = grown
	}
	return append(dst, v)
}

func (s *Of[T]) grow(n int) {
	var t T
	limit := maxChunkBytes / int(max(unsafe.Sizeof(t), 1))
	if s.next == 0 {
		s.next = firstChunk
		if s.hint != nil {
			if h := min(s.hint.Load(), int64(s.hintMax), int64(limit)); h > 0 {
				s.next = int(h)
			}
		}
	}
	s.free = make([]T, max(s.next, n))
	s.next = max(s.next, min(2*s.next, limit))
}
