package heap

import (
	"fmt"
	"sort"
	"strings"
)

// Witness kinds. A "cycle" witness repeats a node along its own DFS
// path (a true back edge: traversal without a cycle table would not
// terminate). A "shared" witness reaches the same node along two
// distinct paths (a DAG, e.g. a diamond over ONE allocation): safe to
// traverse, but the cycle table is still required to preserve object
// identity on the wire, so both kinds keep the table.
const (
	WitnessCycle  = "cycle"
	WitnessShared = "shared"
)

// CycleWitness explains why CycleWitnessFrom flagged a root set: the first
// allocation encountered twice, how it repeated (Kind), and the two
// field paths that reached it. A nil witness means the traversal
// proved the graphs repeat-free and the cycle table can be elided.
type CycleWitness struct {
	Node      NodeID   // repeated heap node
	Alloc     int      // its logical allocation number (Figure 2 numbering)
	Kind      string   // WitnessCycle or WitnessShared
	FirstPath []string // root+field labels of the first encounter
	Path      []string // root+field labels of the repeat encounter
}

func (w *CycleWitness) String() string {
	if w == nil {
		return "acyclic"
	}
	return fmt.Sprintf("%s: allocation %d reached via %s and again via %s",
		w.Kind, w.Alloc, strings.Join(w.FirstPath, ""), strings.Join(w.Path, ""))
}

// edgeLabel renders one field key as a path segment: "Foo.bar" becomes
// ".bar", the array-element key stays "[]".
func edgeLabel(k string) string {
	if k == ElemKey {
		return "[]"
	}
	if i := strings.IndexByte(k, '.'); i >= 0 {
		return "." + k[i+1:]
	}
	return "." + k
}

// CycleWitnessFrom implements the conservative cycle check of §3.2:
// the heap graphs rooted at all arguments of a call are traversed with
// one shared seen-set, and any allocation number encountered twice
// flags a potential cycle. Passing the same object twice (Figure 8), a
// self-reference (Figure 9) and a linked list all trip the check;
// trees and nested arrays do not. The walk (deterministic order)
// records the path to each node, so the first repeat is reported with
// both routes to it; nil means the cycle table can be elided.
func (a *Analysis) CycleWitnessFrom(rootSets []NodeSet) *CycleWitness {
	first := map[NodeID][]string{} // path at first visit
	onPath := map[NodeID]bool{}    // currently on the DFS stack
	var path []string
	var w *CycleWitness
	var visit func(NodeID)
	visit = func(n NodeID) {
		if w != nil {
			return
		}
		if prior, ok := first[n]; ok {
			kind := WitnessShared
			if onPath[n] {
				kind = WitnessCycle
			}
			w = &CycleWitness{
				Node:      n,
				Alloc:     a.Nodes[n].Logical,
				Kind:      kind,
				FirstPath: append([]string(nil), prior...),
				Path:      append([]string(nil), path...),
			}
			return
		}
		first[n] = append([]string(nil), path...)
		onPath[n] = true
		keys := make([]string, 0, len(a.fields[n]))
		for k := range a.fields[n] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			for _, m := range a.fields[n][k].Sorted() {
				path = append(path, edgeLabel(k))
				visit(m)
				path = path[:len(path)-1]
				if w != nil {
					return
				}
			}
		}
		onPath[n] = false
	}
	for i, roots := range rootSets {
		for _, n := range roots.Sorted() {
			path = append(path, fmt.Sprintf("root%d", i))
			visit(n)
			path = path[:len(path)-1]
			if w != nil {
				return w
			}
		}
	}
	return nil
}

// DumpGraph renders the subgraph reachable from roots in the style of
// Figure 2: one line per node with its allocation numbers and type,
// then its field edges.
func (a *Analysis) DumpGraph(roots NodeSet) string {
	reach := a.Reach(roots)
	var b strings.Builder
	for _, id := range reach.Sorted() {
		n := a.Nodes[id]
		fmt.Fprintf(&b, "Allocation %d", n.Logical)
		if n.IsClone() {
			fmt.Fprintf(&b, " (physical %d, clone via %s)", n.Physical, n.CloneCtx)
		}
		fmt.Fprintf(&b, ": %s\n", n.Type)
		keys := make([]string, 0, len(a.fields[id]))
		for k := range a.fields[id] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			set := a.fields[id][k]
			if len(set) == 0 {
				continue
			}
			label := k
			if i := strings.IndexByte(k, '.'); i >= 0 {
				label = "." + k[i+1:]
			}
			fmt.Fprintf(&b, "  %q -> %s\n", label, set)
		}
	}
	return b.String()
}
