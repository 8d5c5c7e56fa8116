package heap

import (
	"slices"
	"strconv"
	"strings"
)

// NodeSet is a set of heap nodes: the node IDs in ascending order,
// without duplicates. Node IDs are small dense integers and points-to
// sets are small, so the ordered sequence beats a hash set on every
// count — the empty set is nil and costs nothing, ranging over a set
// visits it in the one order every consumer wants (no sorted copy),
// and mergeParts relocates a region's sets by adding an offset to the
// elements in place.
//
// A NodeSet is a value like any slice: Add and AddAll take the
// address, and a set kept in a map is written back after it changed.
// Two sets never share a backing array unless one was assigned from
// the other and neither is modified afterwards.
type NodeSet []NodeID

// Add inserts id, reporting whether the set changed.
func (s *NodeSet) Add(id NodeID) bool {
	i, found := slices.BinarySearch(*s, id)
	if found {
		return false
	}
	*s = slices.Insert(*s, i, id)
	return true
}

// AddAll unions t into s, reporting whether s changed.
func (s *NodeSet) AddAll(t NodeSet) bool {
	a := *s
	// Count what is missing first: the common case in a fixpoint is
	// "nothing", which must not write.
	missing := 0
	for i, j := 0, 0; j < len(t); {
		switch {
		case i == len(a) || t[j] < a[i]:
			missing++
			j++
		case t[j] == a[i]:
			i++
			j++
		default:
			i++
		}
	}
	if missing == 0 {
		return false
	}
	// Merge from the back into the grown slice, so nothing is
	// overwritten before it is read.
	i, j := len(a)-1, len(t)-1
	a = slices.Grow(a, missing)[:len(a)+missing]
	for k := len(a) - 1; j >= 0; k-- {
		if i >= 0 && a[i] > t[j] {
			a[k] = a[i]
			i--
		} else {
			if i >= 0 && a[i] == t[j] {
				i--
			}
			a[k] = t[j]
			j--
		}
	}
	*s = a
	return true
}

// Has reports membership.
func (s NodeSet) Has(id NodeID) bool {
	_, found := slices.BinarySearch(s, id)
	return found
}

// Sorted returns the ids in ascending order: the set itself, not a
// copy. The caller must not modify it.
func (s NodeSet) Sorted() []NodeID { return s }

// relocate adds base to every id, in place; the order is unchanged.
func (s NodeSet) relocate(base NodeID) {
	for i := range s {
		s[i] += base
	}
}

func (s NodeSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, id := range s {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(id)))
	}
	b.WriteByte('}')
	return b.String()
}
