package ir

// domTree is the immediate-dominator tree of one function, by
// Block.ID, computed with the Cooper–Harvey–Kennedy iterative
// algorithm. Its slices are scratch: compute reuses them, so one
// domTree serves every function of a program in turn.
type domTree struct {
	idom  []*Block // nil for unreachable blocks; the entry maps to itself
	num   []int    // reverse-postorder number of reachable blocks
	rpo   []*Block
	stack []domFrame
}

type domFrame struct {
	b    *Block
	next int // index of the next successor to visit
}

func (d *domTree) compute(f *Func) {
	n := len(f.Blocks)
	d.idom = append(d.idom[:0], make([]*Block, n)...)
	d.num = append(d.num[:0], make([]int, n)...)

	// DFS postorder over reachable blocks, then reversed in place.
	// idom doubles as the visited mark until the real pass below.
	d.rpo, d.stack = d.rpo[:0], d.stack[:0]
	entry := f.Entry()
	d.idom[entry.ID] = entry
	d.stack = append(d.stack, domFrame{b: entry})
	for len(d.stack) > 0 {
		top := &d.stack[len(d.stack)-1]
		if top.next < len(top.b.Succs) {
			s := top.b.Succs[top.next]
			top.next++
			if d.idom[s.ID] == nil {
				d.idom[s.ID] = s
				d.stack = append(d.stack, domFrame{b: s})
			}
			continue
		}
		d.rpo = append(d.rpo, top.b)
		d.stack = d.stack[:len(d.stack)-1]
	}
	for i, j := 0, len(d.rpo)-1; i < j; i, j = i+1, j-1 {
		d.rpo[i], d.rpo[j] = d.rpo[j], d.rpo[i]
	}
	for i, b := range d.rpo {
		d.num[b.ID] = i
		d.idom[b.ID] = nil
	}
	d.idom[entry.ID] = entry

	intersect := func(a, b *Block) *Block {
		for a != b {
			for d.num[a.ID] > d.num[b.ID] {
				a = d.idom[a.ID]
			}
			for d.num[b.ID] > d.num[a.ID] {
				b = d.idom[b.ID]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range d.rpo[1:] {
			var newIdom *Block
			for _, p := range b.Preds {
				if d.idom[p.ID] == nil {
					continue // unreachable or not yet processed
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != nil && d.idom[b.ID] != newIdom {
				d.idom[b.ID] = newIdom
				changed = true
			}
		}
	}
}

func (d *domTree) reachable(b *Block) bool { return d.idom[b.ID] != nil }

// dominates reports whether a dominates b (reflexively).
func (d *domTree) dominates(a, b *Block) bool {
	for {
		if a == b {
			return true
		}
		next := d.idom[b.ID]
		if next == nil || next == b {
			return false
		}
		b = next
	}
}

// Dominators computes the immediate-dominator tree of f. The result
// maps each reachable block to its immediate dominator (the entry maps
// to itself). Unreachable blocks are absent.
func Dominators(f *Func) map[*Block]*Block {
	var d domTree
	d.compute(f)
	idom := make(map[*Block]*Block, len(d.rpo))
	for _, b := range d.rpo {
		idom[b] = d.idom[b.ID]
	}
	return idom
}

// Dominates reports whether a dominates b under the given idom tree
// (reflexively).
func Dominates(idom map[*Block]*Block, a, b *Block) bool {
	for {
		if a == b {
			return true
		}
		next, ok := idom[b]
		if !ok || next == b {
			return false
		}
		b = next
	}
}
