// Package slab allocates the compiler's many small objects per compile
// unit instead of one by one: n objects of one type cost O(log n)
// allocations, and the collector sees a few pointer-dense chunks
// instead of n boxes.
//
// A slab has exactly one owner — a parser, an ir.Program, a
// heap.Analysis — and lives as long as anything it handed out is
// referenced. Nothing is ever returned to a slab and no slab is shared
// between compiles: a core.Result keeps its AST and IR.
package slab

import "unsafe"

const (
	// firstChunk is small enough that a three-function sketch pays no
	// more bytes than it did with one allocation per object.
	firstChunk = 8
	// maxChunkBytes bounds what the unused tail of the last chunk can
	// waste, whatever the element size.
	maxChunkBytes = 32 << 10
)

// Of hands out zeroed values of T carved from chunks that double in
// size from firstChunk elements up to maxChunkBytes. The zero value is
// ready to use.
type Of[T any] struct {
	free []T
	next int // element count of the next chunk
}

// New returns a pointer to a zeroed T.
func (s *Of[T]) New() *T {
	if len(s.free) == 0 {
		s.grow(1)
	}
	p := &s.free[0]
	s.free = s.free[1:]
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
	if s.next == 0 {
		s.next = firstChunk
	}
	s.free = make([]T, max(s.next, n))
	var t T
	limit := maxChunkBytes / int(max(unsafe.Sizeof(t), 1))
	s.next = max(s.next, min(2*s.next, limit))
}
