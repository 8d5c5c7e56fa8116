// Package heap implements the paper's RMI-aware heap analysis (§2):
// an allocation-site-based, inclusion-style points-to analysis over SSA
// form, extended to model RMI's deep-copy parameter semantics.
//
// Every allocation site becomes a heap node; data flow propagates node
// sets through assignments, phis, field stores/loads and calls until a
// fixpoint. At remote call boundaries the reachable argument subgraph
// is cloned — each node's *logical* allocation number is fresh while
// its *physical* allocation number is inherited from the original.
// Cloning is memoized per (context, physical) pair, which is exactly
// the paper's termination fix for the data-flow loop of Figure 3/4:
// once a physical number has been propagated into a remote function, no
// further clone is created, so the node sets stop growing.
//
// Two precision refinements sit on top of the base analysis (both on by
// default, both switchable through Options — the verdict-matrix
// baseline compiles with them off):
//
//  1. 1-call-site sensitivity: every direct call site of a function
//     with a body gets its own clone of the callee's points-to summary
//     (its own Ctx), so one pessimistic caller no longer poisons the
//     verdicts of every other caller of a shared helper. Recursive
//     functions (any call-graph SCC) and callees whose dedicated
//     context count would exceed Options.ContextBudget fall back to
//     the merged summary context 0 — the bounded-context rule that
//     keeps the analysis linear in the number of call sites.
//
//  2. Flow-sensitive strong updates: a store through an SSA value
//     whose points-to set is a singleton non-summary allocation node
//     is *killed* when a later store in the same basic block
//     overwrites the same field of the same base value with no
//     potentially-observing instruction (load or call) in between.
//     The analysis runs twice: the first pass computes the kill set
//     from its final (over-approximate) points-to sets, the second
//     re-runs the fixpoint with killed stores skipped. Because the
//     second pass only removes constraints, its sets shrink, so every
//     kill stays justified.
package heap

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"

	"cormi/internal/ir"
	"cormi/internal/lang"
	"cormi/internal/slab"
)

// NodeID identifies a heap node. The NodeID doubles as the logical
// allocation number.
type NodeID int

// Ctx identifies one analysis context of a function. Context 0 is the
// merged (context-insensitive) summary every function has; contexts
// > 0 are per-direct-call-site clones of one callee's summary.
type Ctx int

// MergedCtx is the shared fallback context: entry functions, remote
// invocations, recursive callees and budget overflow all bind here.
const MergedCtx Ctx = 0

// DefaultContextBudget bounds the dedicated contexts per callee: a
// function with more direct call sites than this sees the overflow
// sites through its merged summary instead.
const DefaultContextBudget = 16

// Options selects the analysis precision/cost trade-offs. The zero
// Options is the context-insensitive, weak-update baseline the
// precision gate compares against.
type Options struct {
	// ContextSensitive enables 1-call-site-sensitive interprocedural
	// analysis (per-call-site callee summaries).
	ContextSensitive bool
	// StrongUpdates enables the flow-sensitive same-block store-kill
	// refinement.
	StrongUpdates bool
	// ContextBudget caps dedicated contexts per callee (0 means
	// DefaultContextBudget).
	ContextBudget int
}

// DefaultOptions is the production configuration: both refinements on.
func DefaultOptions() Options {
	return Options{ContextSensitive: true, StrongUpdates: true, ContextBudget: DefaultContextBudget}
}

func (o Options) budget() int {
	if o.ContextBudget <= 0 {
		return DefaultContextBudget
	}
	return o.ContextBudget
}

// ElemKey is the pseudo-field naming array element edges (the "[]"
// edges of Figure 2).
const ElemKey = "[]"

// Node is one heap-graph node: an allocation site (in one analysis
// context) or a clone of one.
type Node struct {
	ID       NodeID
	Logical  int
	Physical int
	Type     lang.Type
	// Site is the allocation instruction this node (or its clone
	// origin) came from.
	Site *ir.Instr
	// Ctx is the analysis context the node was allocated in (MergedCtx
	// for context-insensitive nodes and clones).
	Ctx Ctx
	// Summary marks nodes that may stand for objects from several
	// merged call paths: merged-context nodes of functions that have
	// direct callers, and all remote-boundary clones (memoized per
	// physical number). Strong updates never fire on summary nodes.
	Summary bool
	// CloneOf is the node this one was cloned from (-1 for originals)
	// and CloneCtx the remote-boundary context that caused the clone.
	CloneOf  NodeID
	CloneCtx string
}

// IsClone reports whether the node is an RMI-boundary clone.
func (n *Node) IsClone() bool { return n.CloneOf >= 0 }

func (n *Node) String() string {
	c := ""
	if n.IsClone() {
		c = fmt.Sprintf(" clone-of=%d ctx=%s", n.CloneOf, n.CloneCtx)
	} else if n.Ctx != MergedCtx {
		c = fmt.Sprintf(" callctx=%d", n.Ctx)
	}
	return fmt.Sprintf("node%d(log=%d, phys=%d, %s%s)", n.ID, n.Logical, n.Physical, n.Type, c)
}

type cloneKey struct {
	ctx      string
	physical int
}

type clonePair struct {
	ctx  string
	orig NodeID
}

// valCtx keys a value's points-to set in one analysis context.
type valCtx struct {
	v *ir.Value
	c Ctx
}

// allocKey keys an allocation instruction's node in one context.
type allocKey struct {
	in *ir.Instr
	c  Ctx
}

// instrCtx names one instruction under one analysis context (the key
// of the strong-update kill set).
type instrCtx struct {
	in *ir.Instr
	c  Ctx
}

// Analysis is the computed heap graph of the whole program: one
// numbering of nodes and contexts, in the deterministic order the
// analysis regions (sched.Component) are solved in — region by region,
// so each region's nodes and contexts are contiguous.
type Analysis struct {
	Prog *ir.Program
	Opts Options

	// funcs is every function in fixpoint iteration order: the
	// regions' bottom-up wave orders, concatenated.
	funcs []*ir.Func

	Nodes []*Node

	// The sets live in the maps by value: whoever grows one writes it
	// back (see NodeSet). A node's field map is made on its first
	// edge; most nodes of a region never get one.
	pts       map[valCtx]NodeSet
	ptsAll    map[*ir.Value]NodeSet // union over contexts, kept in sync
	fields    []map[string]NodeSet  // by NodeID
	globals   map[*lang.FieldDecl]NodeSet
	allocNode map[allocKey]NodeID

	cloneMemo  map[cloneKey]NodeID
	clonePairs map[clonePair]NodeID
	// pairs lists the clone pairs of the region being solved, for
	// mirrorCloneEdges.
	pairs []clonePair

	// Solver scratch: the node slab, the clone-context strings built
	// once per callee and per site instead of once per transfer, and
	// the buffers of mirrorCloneEdges and snapshot.
	nodes      slab.Of[Node]
	argCtxs    map[*lang.MethodDecl]string
	retCtxs    map[int]string
	keyScratch []string
	idScratch  []NodeID

	// Context machinery (filled by the static prepass).
	ctxsOf    map[*ir.Func][]Ctx // live contexts, MergedCtx (if live) first
	ctxOfCall map[*ir.Instr]Ctx  // direct call instr -> callee context
	ctxSite   []*ir.Instr        // by Ctx (nil for MergedCtx)
	recursive map[*ir.Func]bool
	hasCaller map[*ir.Func]bool

	// killed stores (strong updates), decided by the first pass.
	killed map[instrCtx]bool
	// StrongKills counts the stores the final pass skipped because a
	// later same-block store strongly updates the same field.
	StrongKills int

	changed bool
	// walked counts the function bodies the passes walked: a region's
	// size once per pass over it.
	walked int
	// Iterations records how many fixpoint passes were needed (a
	// termination witness for the Figure 3/4 scenario): the most any
	// region needed.
	Iterations int

	// BudgetFallbacks counts, per callee qualified name, the direct
	// call sites demoted to MergedCtx because the callee's dedicated-
	// context count exceeded Options.ContextBudget (satellite fix of
	// ISSUE 10: budget exhaustion used to be silent). Recursion and
	// ContextSensitive=false demotions are NOT counted — those are
	// semantic, not budget pressure.
	BudgetFallbacks map[string]int

	// Cost is the driver's cost model for the whole run (CostStats is
	// exported through `rmic -analysis-stats` and gated in CI).
	Cost CostStats
}

// Stats summarizes the analysis cost for the verdict matrix.
type Stats struct {
	Nodes        int // heap nodes (originals, context clones, RMI clones)
	Contexts     int // total analysis contexts (incl. the merged one)
	PeakPointsTo int // largest per-context value points-to set
	StrongKills  int // stores removed by strong updates
	Iterations   int // fixpoint passes of the final run
}

// AnalysisStats reports the cost metrics of the finished analysis.
func (a *Analysis) AnalysisStats() Stats {
	st := Stats{
		Nodes:       len(a.Nodes),
		Contexts:    len(a.ctxSite),
		StrongKills: a.StrongKills,
		Iterations:  a.Iterations,
	}
	for _, s := range a.pts {
		if len(s) > st.PeakPointsTo {
			st.PeakPointsTo = len(s)
		}
	}
	return st
}

// Contexts returns the analysis contexts of a function, MergedCtx
// first, in deterministic order.
func (a *Analysis) Contexts(f *ir.Func) []Ctx { return a.ctxsOf[f] }

// PointsTo returns the node set an SSA value may refer to across all
// of its function's contexts (nil-safe) — the sound merged view.
func (a *Analysis) PointsTo(v *ir.Value) NodeSet {
	if v == nil {
		return nil
	}
	return a.ptsAll[v]
}

// PointsToIn returns the points-to set of v in one specific context
// (nil-safe; nil when the context never bound v).
func (a *Analysis) PointsToIn(v *ir.Value, c Ctx) NodeSet {
	if v == nil {
		return nil
	}
	return a.pts[valCtx{v, c}]
}

// Field returns the points-to set of node.field.
func (a *Analysis) Field(n NodeID, key string) NodeSet {
	return a.fields[n][key]
}

// FieldEdges returns all outgoing field edges of a node, keyed by
// field name. The returned map is the analysis's own storage; treat it
// as read-only.
func (a *Analysis) FieldEdges(n NodeID) map[string]NodeSet {
	return a.fields[n]
}

// FieldKey names a declared field edge.
func FieldKey(fd *lang.FieldDecl) string { return fd.QualifiedName() }

// Node returns the node by id.
func (a *Analysis) Node(id NodeID) *Node { return a.Nodes[id] }

// GlobalSeeds returns the union of all static-variable points-to sets:
// everything directly reachable from a global (the escape-analysis
// seed set).
func (a *Analysis) GlobalSeeds() NodeSet {
	var out NodeSet
	for _, s := range a.globals {
		out.AddAll(s)
	}
	return out
}

// Reach returns roots plus everything transitively reachable through
// field edges. It costs at most three allocations whatever the graph:
// a visited bitmap over the node table, the work list once it outgrows
// the stack frame, and the result, which is read off the bitmap in
// ascending order.
func (a *Analysis) Reach(roots NodeSet) NodeSet {
	if len(roots) == 0 {
		return nil
	}
	seen := make([]uint64, (len(a.Nodes)+63)/64)
	var small [32]NodeID
	stack := small[:0]
	n := 0
	mark := func(id NodeID) {
		if w, bit := id/64, uint64(1)<<(id%64); seen[w]&bit == 0 {
			seen[w] |= bit
			if len(stack) == cap(stack) {
				// A node is pushed at most once, when first marked.
				stack = append(make([]NodeID, 0, len(a.Nodes)), stack...)
			}
			stack = append(stack, id)
			n++
		}
	}
	for _, id := range roots {
		mark(id)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, set := range a.fields[id] {
			for _, m := range set {
				mark(m)
			}
		}
	}
	out := make(NodeSet, 0, n)
	for w, word := range seen {
		for ; word != 0; word &= word - 1 {
			out = append(out, NodeID(w*64+bits.TrailingZeros64(word)))
		}
	}
	return out
}

// CloneSetOf maps a caller-side node set to its clones under ctx,
// returning only nodes that were actually cloned (memo hits).
func (a *Analysis) CloneSetOf(ctx string, orig NodeSet) NodeSet {
	var out NodeSet
	for _, id := range orig {
		if c, ok := a.clonePairs[clonePair{ctx: ctx, orig: id}]; ok {
			out = append(out, c)
		}
	}
	// Distinct originals may share one clone (same physical number).
	slices.Sort(out)
	return slices.Compact(out)
}

// ArgCtx is the cloning context for arguments of a remote function
// ("checked if the physical allocation number has already been
// propagated to that remote function").
func ArgCtx(callee *lang.MethodDecl) string { return "arg:" + callee.QualifiedName() }

// RetCtx is the cloning context for return values, per call site.
func RetCtx(siteID int) string { return "ret:site" + strconv.Itoa(siteID) }
