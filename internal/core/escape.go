package core

import (
	"fmt"

	"cormi/internal/heap"
	"cormi/internal/ir"
)

// escapeState holds the program-wide part of the §3.3 escape check,
// shared by every per-site query of one compile. Escaping is a fact
// about the program, not about the query, so it is computed once — on
// the first non-empty graph, so a sketch without reference arguments
// pays nothing — and each query then costs O(|graph| × in-degree).
// The state belongs to one Result and is never kept across compiles.
type escapeState struct {
	built bool
	// globalReach is everything reachable from a static variable; any
	// overlap means the graph outlives the invocation (Figure 11).
	globalReach heap.NodeSet
	// preds is the reverse of Heap.FieldEdges, by NodeID: every
	// (holder, field key) with an edge to the node.
	preds [][]fieldPred
	// unknown records, by NodeID, the first store of the node through
	// a reference whose points-to set is empty in some context, in
	// scan order (function, instruction, context); seq 0 means none.
	unknown []unknownStore
	// receiverReach and returnedReach memoise the lifetime roots of a
	// function: Reach of its receiver parameter and of its returned
	// values. Every site of one callee asks for the same two sets.
	receiverReach, returnedReach map[*ir.Func]heap.NodeSet
}

type fieldPred struct {
	holder heap.NodeID
	key    string
}

type unknownStore struct {
	seq int
	fn  *ir.Func
}

func newEscapeState() *escapeState {
	return &escapeState{
		receiverReach: map[*ir.Func]heap.NodeSet{},
		returnedReach: map[*ir.Func]heap.NodeSet{},
	}
}

// build fills the program-wide indexes.
func (es *escapeState) build(r *Result) {
	es.built = true
	es.globalReach = r.Heap.Reach(r.Heap.GlobalSeeds())

	n := len(r.Heap.Nodes)
	es.preds = make([][]fieldPred, n)
	for i := 0; i < n; i++ {
		holder := heap.NodeID(i)
		for key, set := range r.Heap.FieldEdges(holder) {
			for _, m := range set {
				es.preds[m] = append(es.preds[m], fieldPred{holder, key})
			}
		}
	}

	// Stores through a reference with an empty points-to set. The
	// check runs per analysis context: under 1-call-site sensitivity a
	// target may be known in one context and unknowable in another,
	// and the merged view would hide the unanalyzable store (the
	// context-separated analysis never materializes its field edge, so
	// no other rule can catch it).
	es.unknown = make([]unknownStore, n)
	seq := 0
	for _, f := range r.IR.Funcs {
		ctxs := r.Heap.Contexts(f)
		f.Instrs(func(in *ir.Instr) bool {
			var target, val *ir.Value
			switch in.Op {
			case ir.OpStore:
				target, val = in.Args[0], in.Args[1]
			case ir.OpStoreIdx:
				target, val = in.Args[0], in.Args[2]
			default:
				return true
			}
			for _, c := range ctxs {
				seq++
				if len(r.Heap.PointsToIn(target, c)) > 0 {
					continue
				}
				for _, id := range r.Heap.PointsToIn(val, c) {
					if es.unknown[id].seq == 0 {
						es.unknown[id] = unknownStore{seq, f}
					}
				}
			}
			return true
		})
	}
}

// returned is the memoised Reach of everything f may return.
func (es *escapeState) returned(r *Result, f *ir.Func) heap.NodeSet {
	reach, ok := es.returnedReach[f]
	if !ok {
		var rets heap.NodeSet
		for _, rv := range ir.ReturnValues(f) {
			rets.AddAll(r.Heap.PointsTo(rv))
		}
		reach = r.Heap.Reach(rets)
		es.returnedReach[f] = reach
	}
	return reach
}

// receiver is the memoised Reach of f's receiver parameter.
func (es *escapeState) receiver(r *Result, f *ir.Func) heap.NodeSet {
	reach, ok := es.receiverReach[f]
	if !ok {
		reach = r.Heap.Reach(r.Heap.PointsTo(f.Params[0]))
		es.receiverReach[f] = reach
	}
	return reach
}

// Escape-denial rules. Each names the §3.3 condition that blocked
// reuse; the witness carries the offending heap node when one exists.
const (
	RuleGlobalReachable   = "global-reachable"
	RuleReceiverReachable = "receiver-reachable"
	RuleReturned          = "returned"
	RuleStoredOutside     = "stored-outside"
	RuleUnknownStore      = "unknown-store"
	RuleNoCalleeBody      = "no-callee-body"
	RuleUnanalyzedClones  = "unanalyzed-clones"
	RulePhiLive           = "phi-live"
)

// EscapeWitness is the provenance of a reuse denial: which escape rule
// fired and, when the rule concerns a concrete heap node, which
// allocation it was. A nil witness means the graph provably dies with
// its invocation and the buffer may be reused.
type EscapeWitness struct {
	Rule   string
	Node   heap.NodeID // offending node, -1 when the rule has no single node
	Alloc  int         // its logical allocation number, -1 when Node is -1
	Detail string
}

func (r *Result) nodeWitness(rule string, id heap.NodeID, detail string) *EscapeWitness {
	return &EscapeWitness{Rule: rule, Node: id, Alloc: r.Heap.Nodes[id].Logical, Detail: detail}
}

// lifetimeRoot tags an extra escape seed set, already closed under
// Reach, with the denial rule it stands for, so a hit can be reported
// precisely.
type lifetimeRoot struct {
	rule  string
	reach heap.NodeSet
}

// graphEscapeWitness implements the RMI-specific escape analysis of
// §3.3 for an object graph that should die when its invocation
// finishes (callers pass a non-empty one): the graph escapes if any of
// its nodes
//
//   - is reachable from a static variable (stored to a global,
//     directly or transitively — Figure 11),
//   - is reachable from one of the extra lifetime roots (the remote
//     receiver's own object graph, or the callee's return value for
//     argument reuse: a returned argument flows back to the caller),
//   - is stored into a field of any object outside the graph
//     (conservatively, the heap location may outlive the call),
//   - or is stored through a reference with an empty points-to set
//     (e.g. a receiver no analyzed code ever allocates): the target is
//     unknowable, so assume the store escapes.
//
// Note the recursive rule the paper highlights: an object escapes if
// anything it (transitively) references escapes — which holds here
// because `graph` is the full reachable set of the argument.
//
// The return value is the denial witness, nil when nothing escapes.
// The rules are tried in the order above and each reports its least
// candidate: the lowest node id for the reachability rules, the lowest
// (holder id, field key, node id) for a store outside the graph, and
// the earliest store in scan order, then the lowest node id, for an
// unanalyzable one. Every rule is one pass over the graph.
func (r *Result) graphEscapeWitness(es *escapeState, graph heap.NodeSet, extra []lifetimeRoot) *EscapeWitness {
	if !es.built {
		es.build(r)
	}
	if id, ok := leastCommon(graph, es.globalReach); ok {
		return r.nodeWitness(RuleGlobalReachable, id, "reachable from a static variable")
	}
	for _, lr := range extra {
		if id, ok := leastCommon(graph, lr.reach); ok {
			return r.nodeWitness(lr.rule, id, "")
		}
	}
	// Stored into a node outside the graph?
	var node heap.NodeID
	var via fieldPred
	found := false
	for _, m := range graph {
		for _, p := range es.preds[m] {
			if graph.Has(p.holder) {
				continue
			}
			if !found || p.holder < via.holder ||
				p.holder == via.holder && (p.key < via.key || p.key == via.key && m < node) {
				node, via, found = m, p, true
			}
		}
	}
	if found {
		return r.nodeWitness(RuleStoredOutside, node,
			fmt.Sprintf("stored into %s of allocation %d", via.key, r.Heap.Nodes[via.holder].Logical))
	}
	// Stored through an unanalyzable reference?
	var first unknownStore
	for _, m := range graph {
		u := es.unknown[m]
		if u.seq == 0 {
			continue
		}
		if first.seq == 0 || u.seq < first.seq || u.seq == first.seq && m < node {
			node, first = m, u
		}
	}
	if first.seq != 0 {
		return r.nodeWitness(RuleUnknownStore, node,
			fmt.Sprintf("stored through an unanalyzable reference in %s", first.fn.Name))
	}
	return nil
}

// leastCommon returns the lowest node id in both sets: one step of a
// merge over the two ascending sequences.
func leastCommon(graph, reach heap.NodeSet) (heap.NodeID, bool) {
	for i, j := 0, 0; i < len(graph) && j < len(reach); {
		switch {
		case graph[i] < reach[j]:
			i++
		case graph[i] > reach[j]:
			j++
		default:
			return graph[i], true
		}
	}
	return 0, false
}

// argReuseDenial decides §3.3 for one serialized argument of a remote
// call site: the callee-side clone graph of this argument must not
// escape any method the call may run (the callee or an override in a
// subclass, each bound to the same clones). A nil result means the
// argument buffer is reusable; otherwise the witness says why not.
func (r *Result) argReuseDenial(es *escapeState, site *ir.Instr, argNodes heap.NodeSet) *EscapeWitness {
	targets := r.IR.DispatchTargets(site.Callee)
	for _, md := range targets {
		if _, ok := r.IR.FuncOf[md]; !ok {
			// No body: cannot prove anything.
			return &EscapeWitness{Rule: RuleNoCalleeBody, Node: -1, Alloc: -1,
				Detail: md.QualifiedName() + " has no analyzable body"}
		}
	}
	clones := r.Heap.CloneSetOf(heap.ArgCtx(site.Callee), argNodes)
	if len(clones) == 0 && len(argNodes) > 0 {
		return &EscapeWitness{Rule: RuleUnanalyzedClones, Node: -1, Alloc: -1,
			Detail: "no callee-side clone of the argument graph was analyzed"}
	}
	graph := r.Heap.Reach(clones)
	if len(graph) == 0 {
		return nil
	}

	// Lifetime roots beyond globals, per target: the receiver instance
	// (storing an argument into a field of the remote object keeps it
	// alive across calls) and the returned graph (a returned argument
	// flows back to the caller).
	extra := make([]lifetimeRoot, 0, 2) // grows only for overrides
	for _, md := range targets {
		callee := r.IR.FuncOf[md]
		if !md.Static && len(callee.Params) > 0 {
			extra = append(extra, lifetimeRoot{RuleReceiverReachable, es.receiver(r, callee)})
		}
		extra = append(extra, lifetimeRoot{RuleReturned, es.returned(r, callee)})
	}

	return r.graphEscapeWitness(es, graph, extra)
}

// retReuseDenial decides §3.3 for the return value at the caller: the
// clone graph materialized at this call site must not escape the
// caller (it may, however, be re-sent over further RMIs — those copy).
//
// Beyond the heap-escape rules there is a temporal one: the next
// invocation of the same call site overwrites the cached graph, so the
// value must be dead by then. A same-site re-execution only happens
// through a loop back edge, so it suffices that the result value never
// flows into a phi (it does not survive a loop iteration or join).
func (r *Result) retReuseDenial(es *escapeState, site *ir.Instr, retNodes heap.NodeSet) *EscapeWitness {
	if site.Dst != nil {
		for _, u := range site.Dst.Uses {
			if u.Op == ir.OpPhi {
				return &EscapeWitness{Rule: RulePhiLive, Node: -1, Alloc: -1,
					Detail: "result flows into a phi, so it may survive a loop iteration"}
			}
		}
	}
	clones := r.Heap.CloneSetOf(heap.RetCtx(site.SiteID), retNodes)
	if len(clones) == 0 && len(retNodes) > 0 {
		return &EscapeWitness{Rule: RuleUnanalyzedClones, Node: -1, Alloc: -1,
			Detail: "no caller-side clone of the returned graph was analyzed"}
	}
	graph := r.Heap.Reach(clones)
	if len(graph) == 0 {
		return nil
	}

	// If the CONTAINING function can return part of this graph, it
	// outlives the caller's frame. Only the containing function's
	// returns matter: the clones materialize in this frame, and every
	// other way out of it is covered by a different rule — reachability
	// from a static (global-reachable), a store into any object outside
	// the graph, including objects handed to or received from direct
	// callees (stored-outside / unknown-store), and surviving a loop
	// iteration (phi-live). A direct callee returning a node it was
	// passed merely flows it back into this same frame. The previous
	// any-function-returns rule was sound but defeated context
	// sensitivity: a pass-through helper's merged return summary always
	// contained the clone.
	extra := []lifetimeRoot{{RuleReturned, es.returned(r, site.Block.Func)}}

	return r.graphEscapeWitness(es, graph, extra)
}
