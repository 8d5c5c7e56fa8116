package slab

import (
	"sync/atomic"
	"testing"
)

type rec struct {
	id   int
	next *rec
	pad  [5]int
}

// TestOfHandsOutDistinctZeroedValues: every New is zeroed and its own
// object, across many chunk boundaries, and stays intact while later
// ones are written.
func TestOfHandsOutDistinctZeroedValues(t *testing.T) {
	var s Of[rec]
	var all []*rec
	for i := 0; i < 5000; i++ {
		r := s.New()
		if *r != (rec{}) {
			t.Fatalf("value %d not zeroed: %+v", i, *r)
		}
		r.id = i
		if i > 0 {
			r.next = all[i-1]
		}
		all = append(all, r)
	}
	for i, r := range all {
		if r.id != i || (i > 0 && r.next != all[i-1]) {
			t.Fatalf("value %d was overwritten: %+v", i, *r)
		}
	}
	if p := s.Put(rec{id: 7}); p.id != 7 || p == all[len(all)-1] {
		t.Fatal("Put did not return a fresh copy")
	}
}

// TestSliceAndAppend: Slice is exactly n long and cannot grow into its
// neighbour; Append keeps the contents through every move.
func TestSliceAndAppend(t *testing.T) {
	var s Of[int]
	if s.Slice(0) != nil {
		t.Fatal("Slice(0) is not nil")
	}
	a, b := s.Slice(3), s.Slice(3)
	if len(a) != 3 || cap(a) != 3 || len(b) != 3 {
		t.Fatalf("Slice(3): len %d cap %d", len(a), cap(a))
	}
	a = append(a, 9) // must reallocate, not write b[0]
	if b[0] != 0 {
		t.Fatal("append to one slice wrote into the next")
	}
	big := s.Slice(100000) // larger than any chunk
	if len(big) != 100000 {
		t.Fatalf("oversized Slice: len %d", len(big))
	}
	var list []int
	for i := 0; i < 1000; i++ {
		list = s.Append(list, i)
	}
	for i, v := range list {
		if v != i {
			t.Fatalf("list[%d] = %d after Append moves", i, v)
		}
	}
}

// TestAllocationsLogarithmic: n objects cost O(log n) + n/chunk
// allocations, and chunks stop doubling at maxChunkBytes.
func TestAllocationsLogarithmic(t *testing.T) {
	const n = 20000
	allocs := testing.AllocsPerRun(3, func() {
		var s Of[rec]
		for i := 0; i < n; i++ {
			s.New()
		}
	})
	perChunk := maxChunkBytes / 56 // unsafe.Sizeof(rec{})
	if limit := float64(n/perChunk + 12); allocs > limit {
		t.Fatalf("%d objects took %.0f allocations, want at most %.0f", n, allocs, limit)
	}
	var s Of[rec]
	for i := 0; i < n; i++ {
		s.New()
	}
	if got := s.next * 56; got > maxChunkBytes {
		t.Fatalf("next chunk is %d bytes, limit %d", got, maxChunkBytes)
	}
}

// TestHintSizesFirstChunk: a hint sizes the first chunk, loaded at the
// first carve, clamped to the owner's limit and to maxChunkBytes; a
// zero hint keeps firstChunk; later chunks double from the hinted one;
// Carved counts what was handed out.
func TestHintSizesFirstChunk(t *testing.T) {
	perChunk := maxChunkBytes / 56 // unsafe.Sizeof(rec{})
	for _, c := range []struct {
		hint  int64
		limit int
		want  int
	}{
		{hint: 100, limit: 1000, want: 100},
		{hint: 100, limit: 30, want: 30},
		{hint: 1 << 20, limit: 1 << 30, want: perChunk},
		{hint: 0, limit: 1000, want: firstChunk},
		{hint: 3, limit: 1000, want: 3},
	} {
		var h atomic.Int64
		var s Of[rec]
		s.Hint(&h, c.limit)
		h.Store(c.hint) // after Hint: the load waits for the first carve
		s.New()
		if got := len(s.free) + 1; got != c.want {
			t.Errorf("hint %d limit %d: first chunk %d elements, want %d", c.hint, c.limit, got, c.want)
		}
		k := len(s.free) + 1 // one more than is left: a second chunk
		s.Slice(k)
		if got, want := len(s.free)+k, max(k, min(2*c.want, perChunk)); got != want {
			t.Errorf("hint %d limit %d: second chunk %d elements, want %d", c.hint, c.limit, got, want)
		}
		if got := s.Carved(); got != 1+k {
			t.Errorf("hint %d limit %d: carved %d, want %d", c.hint, c.limit, got, 1+k)
		}
	}
}
