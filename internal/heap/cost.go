package heap

// The analysis cost model: every run of the driver prices itself —
// structure (functions, SCCs, regions, waves), precision effort
// (contexts, nodes, peak points-to, strong kills, iterations, budget
// fallbacks), and wall time. CostStats is exported through
// `rmic -analysis-stats` (text and the cormi-cost/3 JSON document)
// and is gated in CI by `make verify-analysis`.

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"cormi/internal/ir"
)

// CostSchema identifies the machine-readable cost document format.
const CostSchema = "cormi-cost/3"

// CostStats prices one analysis run. All fields except WallNS are
// deterministic functions of the program and the precision options.
type CostStats struct {
	// WallNS is the end-to-end driver wall time (plan and solve).
	WallNS int64 `json:"wall_ns"`
	// Functions is the program's bodied function count.
	Functions int `json:"functions"`
	// SCCs counts call-graph strongly connected components.
	SCCs int `json:"sccs"`
	// Components counts independent analysis regions.
	Components int `json:"components"`
	// Waves is the depth of the bottom-up SCC schedule.
	Waves int `json:"waves"`

	// Contexts/Nodes/PeakPointsTo/StrongKills/Iterations mirror
	// Stats of the result.
	Contexts     int `json:"contexts"`
	Nodes        int `json:"nodes"`
	PeakPointsTo int `json:"peak_points_to"`
	StrongKills  int `json:"strong_kills"`
	Iterations   int `json:"iterations"`

	// BudgetFallbacks totals the direct call sites demoted to the
	// merged context by budget exhaustion; FallbackFuncs lists the
	// affected callees (sorted).
	BudgetFallbacks int      `json:"budget_fallbacks"`
	FallbackFuncs   []string `json:"fallback_funcs,omitempty"`
}

// fillFromAnalysis copies the precision-effort counters out of the
// analysis.
func (c *CostStats) fillFromAnalysis(a *Analysis) {
	st := a.AnalysisStats()
	c.Contexts = st.Contexts
	c.Nodes = st.Nodes
	c.PeakPointsTo = st.PeakPointsTo
	c.StrongKills = st.StrongKills
	c.Iterations = st.Iterations
	for name, n := range a.BudgetFallbacks {
		c.BudgetFallbacks += n
		c.FallbackFuncs = append(c.FallbackFuncs, name)
	}
	sort.Strings(c.FallbackFuncs)
}

// CostDoc is the cormi-cost/3 envelope.
type CostDoc struct {
	Schema string `json:"schema"`
	Source string `json:"source,omitempty"`
	CostStats
}

// JSON renders the cormi-cost/3 document. source is a free-form label
// (file name, corpus name).
func (c CostStats) JSON(source string) ([]byte, error) {
	return json.MarshalIndent(CostDoc{Schema: CostSchema, Source: source, CostStats: c}, "", "  ")
}

// Format renders the human-readable cost table.
func (c CostStats) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "analysis wall time     %v\n", time.Duration(c.WallNS).Round(time.Microsecond))
	fmt.Fprintf(&b, "functions              %d\n", c.Functions)
	fmt.Fprintf(&b, "call-graph SCCs        %d\n", c.SCCs)
	fmt.Fprintf(&b, "analysis regions       %d (schedule depth %d)\n", c.Components, c.Waves)
	fmt.Fprintf(&b, "contexts               %d\n", c.Contexts)
	fmt.Fprintf(&b, "heap nodes             %d\n", c.Nodes)
	fmt.Fprintf(&b, "peak points-to         %d\n", c.PeakPointsTo)
	fmt.Fprintf(&b, "strong kills           %d\n", c.StrongKills)
	fmt.Fprintf(&b, "fixpoint iterations    %d (max over regions)\n", c.Iterations)
	fmt.Fprintf(&b, "budget fallbacks       %d", c.BudgetFallbacks)
	if len(c.FallbackFuncs) > 0 {
		fmt.Fprintf(&b, " (%s)", strings.Join(c.FallbackFuncs, ", "))
	}
	b.WriteByte('\n')
	return b.String()
}

// hasher is FNV-1a 64, hand-rolled so Fingerprint needs no allocation
// and no hash.Hash plumbing.
type hasher uint64

// newHasher returns the FNV-1a offset basis.
func newHasher() hasher { return 14695981039346656037 }

// Byte mixes one byte.
func (h *hasher) Byte(b byte) {
	*h = (*h ^ hasher(b)) * 1099511628211
}

// String mixes a length-prefixed string (the prefix keeps "ab","c"
// distinct from "a","bc").
func (h *hasher) String(s string) {
	h.Uint(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.Byte(s[i])
	}
}

// Uint mixes a fixed-width integer.
func (h *hasher) Uint(v uint64) {
	for i := 0; i < 8; i++ {
		h.Byte(byte(v))
		v >>= 8
	}
}

// Bool mixes a flag.
func (h *hasher) Bool(b bool) {
	if b {
		h.Byte(1)
	} else {
		h.Byte(0)
	}
}

// valuesOf enumerates a function's SSA values in a stable order:
// parameters first, then every instruction destination in block order.
func valuesOf(f *ir.Func) []*ir.Value {
	out := append([]*ir.Value(nil), f.Params...)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Dst != nil {
				out = append(out, in.Dst)
			}
		}
	}
	return out
}

// Fingerprint digests the complete observable analysis state — nodes,
// every points-to set, field and global edges, allocation and clone
// tables, context assignment, and the golden-visible counters. Two
// runs with equal fingerprints answer every query identically, so the
// determinism gates compare fingerprints instead of re-deriving all
// downstream artifacts. Cost (wall time) is deliberately excluded: it
// differs between runs that must otherwise be bit-identical.
func (a *Analysis) Fingerprint() uint64 {
	coords := map[*ir.Instr][3]int{}
	valueOf := map[*ir.Value][2]int{}
	for fi, f := range a.Prog.Funcs {
		for bi, b := range f.Blocks {
			for ii, in := range b.Instrs {
				coords[in] = [3]int{fi, bi, ii}
			}
		}
		for vi, v := range valuesOf(f) {
			valueOf[v] = [2]int{fi, vi}
		}
	}
	instr := func(h *hasher, in *ir.Instr) {
		c := coords[in]
		h.Uint(uint64(c[0]))
		h.Uint(uint64(c[1]))
		h.Uint(uint64(c[2]))
	}
	set := func(h *hasher, s NodeSet) {
		ids := s.Sorted()
		h.Uint(uint64(len(ids)))
		for _, id := range ids {
			h.Uint(uint64(id))
		}
	}

	h := newHasher()
	h.Uint(uint64(len(a.Nodes)))
	for _, n := range a.Nodes {
		h.Uint(uint64(n.ID))
		h.Uint(uint64(n.Logical))
		h.Uint(uint64(n.Physical))
		h.Uint(uint64(n.Ctx))
		h.Bool(n.Summary)
		h.Uint(uint64(n.CloneOf + 1))
		h.String(n.CloneCtx)
		h.String(n.Type.String())
		instr(&h, n.Site)
	}

	type ptsLine struct {
		fi, vi, c int
		s         NodeSet
	}
	var lines []ptsLine
	for k, s := range a.pts {
		if len(s) == 0 {
			continue
		}
		vc := valueOf[k.v]
		lines = append(lines, ptsLine{vc[0], vc[1], int(k.c), s})
	}
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].fi != lines[j].fi {
			return lines[i].fi < lines[j].fi
		}
		if lines[i].vi != lines[j].vi {
			return lines[i].vi < lines[j].vi
		}
		return lines[i].c < lines[j].c
	})
	h.Uint(uint64(len(lines)))
	for _, l := range lines {
		h.Uint(uint64(l.fi))
		h.Uint(uint64(l.vi))
		h.Uint(uint64(l.c))
		set(&h, l.s)
	}

	for _, m := range a.fields {
		keys := make([]string, 0, len(m))
		for k, s := range m {
			if len(s) > 0 {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		h.Uint(uint64(len(keys)))
		for _, k := range keys {
			h.String(k)
			set(&h, m[k])
		}
	}

	type named struct {
		name string
		s    NodeSet
	}
	var globals []named
	for fd, s := range a.globals {
		if len(s) > 0 {
			globals = append(globals, named{FieldKey(fd), s})
		}
	}
	sort.Slice(globals, func(i, j int) bool { return globals[i].name < globals[j].name })
	h.Uint(uint64(len(globals)))
	for _, g := range globals {
		h.String(g.name)
		set(&h, g.s)
	}

	type allocLine struct {
		alloc, c int
		id       NodeID
	}
	var allocs []allocLine
	for k, id := range a.allocNode {
		allocs = append(allocs, allocLine{k.in.AllocID, int(k.c), id})
	}
	sort.Slice(allocs, func(i, j int) bool {
		if allocs[i].alloc != allocs[j].alloc {
			return allocs[i].alloc < allocs[j].alloc
		}
		return allocs[i].c < allocs[j].c
	})
	h.Uint(uint64(len(allocs)))
	for _, l := range allocs {
		h.Uint(uint64(l.alloc))
		h.Uint(uint64(l.c))
		h.Uint(uint64(l.id))
	}

	type cloneLine struct {
		ctx string
		n   int
		id  NodeID
	}
	hashClones := func(ls []cloneLine) {
		sort.Slice(ls, func(i, j int) bool {
			if ls[i].ctx != ls[j].ctx {
				return ls[i].ctx < ls[j].ctx
			}
			return ls[i].n < ls[j].n
		})
		h.Uint(uint64(len(ls)))
		for _, l := range ls {
			h.String(l.ctx)
			h.Uint(uint64(l.n))
			h.Uint(uint64(l.id))
		}
	}
	var memo, pairs []cloneLine
	for k, id := range a.cloneMemo {
		memo = append(memo, cloneLine{k.ctx, k.physical, id})
	}
	for k, id := range a.clonePairs {
		pairs = append(pairs, cloneLine{k.ctx, int(k.orig), id})
	}
	hashClones(memo)
	hashClones(pairs)

	h.Uint(uint64(len(a.ctxSite)))
	for _, in := range a.ctxSite[1:] {
		instr(&h, in)
	}
	for fi, f := range a.Prog.Funcs {
		cs := a.ctxsOf[f]
		h.Uint(uint64(fi))
		h.Uint(uint64(len(cs)))
		for _, c := range cs {
			h.Uint(uint64(c))
		}
	}
	type callLine struct {
		co [3]int
		c  Ctx
	}
	var calls []callLine
	for in, c := range a.ctxOfCall {
		calls = append(calls, callLine{coords[in], c})
	}
	sort.Slice(calls, func(i, j int) bool {
		a, b := calls[i].co, calls[j].co
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})
	h.Uint(uint64(len(calls)))
	for _, l := range calls {
		h.Uint(uint64(l.co[0]))
		h.Uint(uint64(l.co[1]))
		h.Uint(uint64(l.co[2]))
		h.Uint(uint64(l.c))
	}

	var fbs []string
	for name := range a.BudgetFallbacks {
		fbs = append(fbs, name)
	}
	sort.Strings(fbs)
	h.Uint(uint64(len(fbs)))
	for _, name := range fbs {
		h.String(name)
		h.Uint(uint64(a.BudgetFallbacks[name]))
	}

	h.Uint(uint64(a.StrongKills))
	h.Uint(uint64(a.Iterations))
	return uint64(h)
}
