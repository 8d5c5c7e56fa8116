// Package sched is the scalability layer of the heap analysis
// (DESIGN.md §16): it condenses the program call graph into strongly
// connected components, groups SCCs into independent analysis regions
// (weakly connected components of the call + shared-static coupling
// graph), and orders each region's functions into bottom-up
// reverse-topological waves.
//
// The partitioning invariant the whole layer rests on: the points-to
// constraint graph never crosses a region boundary. Facts flow between
// two functions only through a call edge (arguments down, returns up,
// RMI clones both ways) or through a shared static field, and both
// edge kinds are region edges by construction. A region whose analysis
// pass changed nothing has therefore converged for good — which is how
// heap.AnalyzeOpts decides when to stop walking it.
package sched

import (
	"sort"

	"cormi/internal/ir"
	"cormi/internal/lang"
)

// Plan is the precomputed schedule of one whole-program analysis:
// the condensed call graph and the independent regions.
type Plan struct {
	Funcs []*ir.Func
	Index map[*ir.Func]int

	// CallEdges is the directed (caller -> bodied callee) adjacency,
	// direct and remote calls combined, deduplicated and sorted.
	CallEdges [][]int
	// Recursive marks functions on a direct-call cycle (SCCs of size
	// > 1 over direct edges only, plus direct self-calls) — exactly
	// the bounded-context rule's recursion predicate.
	Recursive []bool

	// SCCOf/SCCs is the condensation of the combined call graph;
	// SCC ids are assigned in order of each SCC's minimum function
	// index, so they are deterministic.
	SCCOf []int
	SCCs  [][]int
	// WaveOf is each SCC's bottom-up wave: 0 for SCCs with no bodied
	// callees outside themselves, else 1 + max over callee SCCs.
	WaveOf []int
	// Waves is the wave count (max depth + 1; 0 for an empty program).
	Waves int

	// Components are the independent analysis regions in deterministic
	// order (by minimum member function index).
	Components []Component
}

// Component is one independent analysis region.
type Component struct {
	// Funcs are the member function indices in program order.
	Funcs []int
	// Order are the same members in solve order: bottom-up by SCC
	// wave, ties broken by SCC minimum index, then program order
	// within an SCC.
	Order []int
}

// BuildPlan analyzes prog's call structure. It is purely syntactic
// (no points-to facts involved) and deterministic.
func BuildPlan(prog *ir.Program) *Plan {
	n := len(prog.Funcs)
	p := &Plan{
		Funcs: prog.Funcs,
		Index: make(map[*ir.Func]int, n),
	}
	for i, f := range prog.Funcs {
		p.Index[f] = i
	}

	direct := make([][]int, n)
	combined := make([][]int, n)
	selfDirect := make([]bool, n)
	// Static coupling: every function touching a static field joins
	// the field's group; groups merge into components below.
	staticUsers := map[*lang.FieldDecl][]int{}
	for i, f := range prog.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpCall:
					callee, ok := prog.FuncOf[in.Callee]
					if !ok {
						continue // bodiless method: no constraints
					}
					j := p.Index[callee]
					combined[i] = append(combined[i], j)
					direct[i] = append(direct[i], j)
					if i == j {
						selfDirect[i] = true
					}
				case ir.OpRemoteCall:
					// Every method the call may run, as the heap
					// analysis binds it.
					for _, md := range prog.DispatchTargets(in.Callee) {
						if callee, ok := prog.FuncOf[md]; ok {
							combined[i] = append(combined[i], p.Index[callee])
						}
					}
				case ir.OpLoadStatic, ir.OpStoreStatic:
					staticUsers[in.Field] = append(staticUsers[in.Field], i)
				}
			}
		}
	}
	for i := range combined {
		direct[i] = dedupSorted(direct[i])
		combined[i] = dedupSorted(combined[i])
	}
	p.CallEdges = combined

	// Recursion: direct-call cycles only (matches the context
	// prepass's bounded-context rule).
	p.Recursive = make([]bool, n)
	for _, scc := range tarjan(n, direct) {
		if len(scc) > 1 {
			for _, f := range scc {
				p.Recursive[f] = true
			}
		}
	}
	for i, s := range selfDirect {
		if s {
			p.Recursive[i] = true
		}
	}

	// Condensation of the combined graph, with SCC ids renumbered by
	// minimum member index so downstream ordering is deterministic.
	raw := tarjan(n, combined)
	sort.Slice(raw, func(a, b int) bool { return minOf(raw[a]) < minOf(raw[b]) })
	p.SCCs = make([][]int, len(raw))
	p.SCCOf = make([]int, n)
	for id, scc := range raw {
		sort.Ints(scc)
		p.SCCs[id] = scc
		for _, f := range scc {
			p.SCCOf[f] = id
		}
	}

	// Bottom-up waves over the SCC DAG: wave(S) = 0 for leaves (no
	// bodied callees outside S), else 1 + max over callee SCCs. The
	// DAG is walked in reverse dependency order via an explicit
	// stack (no recursion: chains thousands of functions deep must
	// not overflow the goroutine stack).
	p.WaveOf = make([]int, len(p.SCCs))
	sccCallees := make([][]int, len(p.SCCs))
	for id, scc := range p.SCCs {
		var out []int
		for _, f := range scc {
			for _, g := range combined[f] {
				if t := p.SCCOf[g]; t != id {
					out = append(out, t)
				}
			}
		}
		sccCallees[id] = dedupSorted(out)
	}
	waveDone := make([]bool, len(p.SCCs))
	for id := range p.SCCs {
		if waveDone[id] {
			continue
		}
		stack := []int{id}
		for len(stack) > 0 {
			s := stack[len(stack)-1]
			if waveDone[s] {
				stack = stack[:len(stack)-1]
				continue
			}
			ready := true
			for _, t := range sccCallees[s] {
				if !waveDone[t] {
					stack = append(stack, t)
					ready = false
				}
			}
			if !ready {
				continue
			}
			w := 0
			for _, t := range sccCallees[s] {
				if p.WaveOf[t]+1 > w {
					w = p.WaveOf[t] + 1
				}
			}
			p.WaveOf[s] = w
			waveDone[s] = true
			stack = stack[:len(stack)-1]
			if w+1 > p.Waves {
				p.Waves = w + 1
			}
		}
	}

	p.buildComponents(staticUsers)
	return p
}

// buildComponents unions functions connected by call edges (either
// direction) or by use of the same static field, then materializes
// the regions in deterministic order.
func (p *Plan) buildComponents(staticUsers map[*lang.FieldDecl][]int) {
	n := len(p.Funcs)
	uf := newUnionFind(n)
	for i, outs := range p.CallEdges {
		for _, j := range outs {
			uf.union(i, j)
		}
	}
	for _, users := range staticUsers {
		for _, u := range users[1:] {
			uf.union(users[0], u)
		}
	}
	members := map[int][]int{}
	for i := 0; i < n; i++ {
		r := uf.find(i)
		members[r] = append(members[r], i)
	}
	roots := make([]int, 0, len(members))
	for r := range members {
		roots = append(roots, r)
	}
	// members lists are built in ascending i, so members[r][0] is the
	// minimum function index of the region.
	sort.Slice(roots, func(a, b int) bool { return members[roots[a]][0] < members[roots[b]][0] })
	for _, r := range roots {
		c := Component{Funcs: members[r]}
		c.Order = append([]int(nil), c.Funcs...)
		sort.Slice(c.Order, func(a, b int) bool {
			fa, fb := c.Order[a], c.Order[b]
			sa, sb := p.SCCOf[fa], p.SCCOf[fb]
			if p.WaveOf[sa] != p.WaveOf[sb] {
				return p.WaveOf[sa] < p.WaveOf[sb]
			}
			if sa != sb {
				return sa < sb
			}
			return fa < fb
		})
		p.Components = append(p.Components, c)
	}
}

// tarjan computes SCCs of the directed graph iteratively (explicit
// stacks — the generated corpora contain call chains far deeper than
// a comfortable recursion depth). SCC order is the standard Tarjan
// pop order; callers renumber it deterministically.
func tarjan(n int, adj [][]int) [][]int {
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var (
		sccs    [][]int
		stack   []int
		next    int
		callers []int // DFS frames: node
		edgePos []int // DFS frames: next adjacency offset
	)
	for start := 0; start < n; start++ {
		if index[start] != unvisited {
			continue
		}
		callers = append(callers[:0], start)
		edgePos = append(edgePos[:0], 0)
		index[start] = next
		low[start] = next
		next++
		stack = append(stack, start)
		onStack[start] = true
		for len(callers) > 0 {
			v := callers[len(callers)-1]
			if edgePos[len(callers)-1] < len(adj[v]) {
				w := adj[v][edgePos[len(callers)-1]]
				edgePos[len(callers)-1]++
				if index[w] == unvisited {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					callers = append(callers, w)
					edgePos = append(edgePos, 0)
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			callers = callers[:len(callers)-1]
			edgePos = edgePos[:len(edgePos)-1]
			if len(callers) > 0 {
				parent := callers[len(callers)-1]
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == index[v] {
				var scc []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == v {
						break
					}
				}
				sccs = append(sccs, scc)
			}
		}
	}
	return sccs
}

type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
}

func dedupSorted(xs []int) []int {
	if len(xs) < 2 {
		return xs
	}
	sort.Ints(xs)
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

func minOf(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}
