package heap

// The summary codec: one cache payload per analysis region. Only the
// DYNAMIC analysis state is serialized — node table, points-to sets,
// field/global/clone edges, allocation bindings, and the two golden-
// visible counters. Everything the context prepass derives
// deterministically from the program (context tables, caller flags,
// budget-fallback counts) is recomputed on decode, which keeps the
// payload small and leaves less room for a stale file to disagree
// with the program.
//
// Pointers are encoded as stable coordinates within the region:
// functions by their position in the region's solve order, SSA values
// by (function, enumeration index) where the enumeration is params
// followed by instruction destinations, instructions by (function,
// block, instruction), and static fields by "Owner.name". Node IDs
// are region-local and dense, so plain integers round-trip.
//
// decodeComponent trusts nothing: every index is bounds-checked,
// every count is validated against the remaining payload, node sets
// must be strictly ascending, and any violation rejects the whole
// payload — the driver then re-solves the region from scratch. A
// corrupted cache can never panic the compiler or change a result;
// FuzzSummaryDecode pins that.

import (
	"encoding/binary"
	"sort"
	"strings"

	"cormi/internal/heap/sched"
	"cormi/internal/ir"
	"cormi/internal/lang"
)

// summaryVersion is the payload format version (bump with the codec).
const summaryVersion = 1

// maxSummaryString caps any string inside a payload (clone contexts
// and field keys are short; anything longer is garbage).
const maxSummaryString = 1 << 12

// valuesOf enumerates a function's SSA values in the stable order the
// codec and the fingerprint agree on: parameters first, then every
// instruction destination in block order.
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

type sumWriter struct{ buf []byte }

func (w *sumWriter) uint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

func (w *sumWriter) str(s string) {
	w.uint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *sumWriter) bool(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

func (w *sumWriter) set(s NodeSet) {
	ids := s.Sorted()
	w.uint(uint64(len(ids)))
	for _, id := range ids {
		w.uint(uint64(id))
	}
}

// sumReader decodes with a sticky error flag; every accessor returns
// a safe zero once the payload has gone bad.
type sumReader struct {
	data []byte
	pos  int
	bad  bool
}

func (r *sumReader) fail() { r.bad = true }

func (r *sumReader) uint() uint64 {
	if r.bad {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.pos += n
	return v
}

// count reads an element count and rejects any value that could not
// possibly fit in the remaining payload at itemMin bytes per element
// — the cheap defense against length-bomb allocations.
func (r *sumReader) count(itemMin int) int {
	v := r.uint()
	if r.bad || v > uint64(len(r.data)-r.pos)/uint64(itemMin)+1 {
		r.fail()
		return 0
	}
	return int(v)
}

// index reads a bounded index in [0, limit).
func (r *sumReader) index(limit int) int {
	v := r.uint()
	if r.bad || v >= uint64(limit) {
		r.fail()
		return 0
	}
	return int(v)
}

func (r *sumReader) str() string {
	n := r.uint()
	if r.bad || n > maxSummaryString || int(n) > len(r.data)-r.pos {
		r.fail()
		return ""
	}
	s := string(r.data[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s
}

func (r *sumReader) bool() bool {
	if r.bad || r.pos >= len(r.data) {
		r.fail()
		return false
	}
	b := r.data[r.pos]
	r.pos++
	if b > 1 {
		r.fail()
		return false
	}
	return b == 1
}

// setIn reads a node set whose members must be strictly ascending and
// below nNodes (the canonical encoding — also what makes re-encoding
// byte-identical).
func (r *sumReader) setIn(nNodes int) NodeSet {
	n := r.count(1)
	s := make(NodeSet, 0, n)
	prev := -1
	for i := 0; i < n; i++ {
		id := r.index(nNodes)
		if r.bad || id <= prev {
			r.fail()
			return nil
		}
		s = append(s, NodeID(id))
		prev = id
	}
	return s
}

// componentFuncs materializes one region's solve order and recursion
// flags from the plan (shared by solve and decode so both construct
// identical analyses).
func componentFuncs(plan *sched.Plan, ci int) ([]*ir.Func, map[*ir.Func]bool) {
	comp := plan.Components[ci]
	funcs := make([]*ir.Func, len(comp.Order))
	for i, fi := range comp.Order {
		funcs[i] = plan.Funcs[fi]
	}
	recursive := map[*ir.Func]bool{}
	for _, fi := range comp.Funcs {
		if plan.Recursive[fi] {
			recursive[plan.Funcs[fi]] = true
		}
	}
	return funcs, recursive
}

// encodeComponent serializes one solved region. The part's numbering
// is region-local, so the payload is position-independent: it decodes
// identically no matter what the rest of the program looks like —
// which is exactly why an unchanged region's cache entry stays valid
// across edits elsewhere.
func encodeComponent(plan *sched.Plan, ci int, a *Analysis) []byte {
	instrCo := map[*ir.Instr][3]int{}
	valueCo := map[*ir.Value][2]int{}
	for fi, f := range a.funcs {
		for bi, b := range f.Blocks {
			for ii, in := range b.Instrs {
				instrCo[in] = [3]int{fi, bi, ii}
			}
		}
		for vi, v := range valuesOf(f) {
			valueCo[v] = [2]int{fi, vi}
		}
	}
	w := &sumWriter{}
	w.uint(summaryVersion)
	w.uint(uint64(len(a.funcs)))
	w.uint(uint64(a.StrongKills))
	w.uint(uint64(a.Iterations))

	w.uint(uint64(len(a.Nodes)))
	for _, n := range a.Nodes {
		co := instrCo[n.Site]
		w.uint(uint64(co[0]))
		w.uint(uint64(co[1]))
		w.uint(uint64(co[2]))
		w.uint(uint64(n.Ctx))
		w.bool(n.Summary)
		w.uint(uint64(n.CloneOf + 1))
		w.str(n.CloneCtx)
	}

	type ptsLine struct {
		fi, vi, c int
		s         NodeSet
	}
	var pts []ptsLine
	for k, s := range a.pts {
		if len(s) == 0 {
			continue
		}
		vc := valueCo[k.v]
		pts = append(pts, ptsLine{vc[0], vc[1], int(k.c), s})
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].fi != pts[j].fi {
			return pts[i].fi < pts[j].fi
		}
		if pts[i].vi != pts[j].vi {
			return pts[i].vi < pts[j].vi
		}
		return pts[i].c < pts[j].c
	})
	w.uint(uint64(len(pts)))
	for _, l := range pts {
		w.uint(uint64(l.fi))
		w.uint(uint64(l.vi))
		w.uint(uint64(l.c))
		w.set(l.s)
	}

	for _, m := range a.fields {
		keys := make([]string, 0, len(m))
		for k, s := range m {
			if len(s) > 0 {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		w.uint(uint64(len(keys)))
		for _, k := range keys {
			w.str(k)
			w.set(m[k])
		}
	}

	type named struct {
		key string
		s   NodeSet
	}
	var globals []named
	for fd, s := range a.globals {
		if len(s) > 0 {
			globals = append(globals, named{FieldKey(fd), s})
		}
	}
	sort.Slice(globals, func(i, j int) bool { return globals[i].key < globals[j].key })
	w.uint(uint64(len(globals)))
	for _, g := range globals {
		w.str(g.key)
		w.set(g.s)
	}

	type allocLine struct {
		co [3]int
		c  Ctx
		id NodeID
	}
	var allocs []allocLine
	for k, id := range a.allocNode {
		allocs = append(allocs, allocLine{instrCo[k.in], k.c, id})
	}
	sort.Slice(allocs, func(i, j int) bool {
		a, b := allocs[i], allocs[j]
		if a.co != b.co {
			return a.co[0] < b.co[0] ||
				(a.co[0] == b.co[0] && (a.co[1] < b.co[1] ||
					(a.co[1] == b.co[1] && a.co[2] < b.co[2])))
		}
		return a.c < b.c
	})
	w.uint(uint64(len(allocs)))
	for _, l := range allocs {
		w.uint(uint64(l.co[0]))
		w.uint(uint64(l.co[1]))
		w.uint(uint64(l.co[2]))
		w.uint(uint64(l.c))
		w.uint(uint64(l.id))
	}

	type cloneLine struct {
		ctx string
		n   int
		id  NodeID
	}
	writeClones := func(ls []cloneLine) {
		sort.Slice(ls, func(i, j int) bool {
			if ls[i].ctx != ls[j].ctx {
				return ls[i].ctx < ls[j].ctx
			}
			return ls[i].n < ls[j].n
		})
		w.uint(uint64(len(ls)))
		for _, l := range ls {
			w.str(l.ctx)
			w.uint(uint64(l.n))
			w.uint(uint64(l.id))
		}
	}
	var memo, pairs []cloneLine
	for k, id := range a.cloneMemo {
		memo = append(memo, cloneLine{k.ctx, k.physical, id})
	}
	for k, id := range a.clonePairs {
		pairs = append(pairs, cloneLine{k.ctx, int(k.orig), id})
	}
	writeClones(memo)
	writeClones(pairs)
	return w.buf
}

// decodeComponent reconstructs one region from a cache payload, or
// returns nil if the payload is structurally invalid in any way. The
// context tables are recomputed by the same prepass a fresh solve
// runs, so a successful decode is indistinguishable from a solve.
func decodeComponent(prog *ir.Program, plan *sched.Plan, ci int, opts Options, payload []byte) (result *Analysis) {
	// The reader bounds-checks everything, but a defense-in-depth
	// recover keeps a codec bug from escalating a corrupt file into a
	// compiler crash: any panic is a miss.
	defer func() {
		if recover() != nil {
			result = nil
		}
	}()
	funcs, recursive := componentFuncs(plan, ci)
	a := newAnalysis(prog, opts, funcs, recursive)
	a.buildContexts()

	r := &sumReader{data: payload}
	if r.uint() != summaryVersion {
		return nil
	}
	if r.index(len(funcs)+1) != len(funcs) {
		return nil
	}
	a.StrongKills = int(r.uint())
	a.Iterations = int(r.uint())
	if r.bad || a.StrongKills > 1<<24 || a.Iterations < 1 || a.Iterations > maxIterations {
		return nil
	}

	values := make([][]*ir.Value, len(funcs))
	for i, f := range funcs {
		values[i] = valuesOf(f)
	}
	siteAt := func() *ir.Instr {
		f := funcs[r.index(len(funcs))]
		if r.bad {
			return nil
		}
		b := f.Blocks[r.index(len(f.Blocks))]
		if r.bad {
			return nil
		}
		in := b.Instrs[r.index(len(b.Instrs))]
		if r.bad {
			return nil
		}
		return in
	}

	nNodes := r.count(7)
	for i := 0; i < nNodes; i++ {
		site := siteAt()
		c := Ctx(r.index(len(a.ctxSite)))
		summary := r.bool()
		cloneOf := NodeID(r.uint()) - 1
		cloneCtx := r.str()
		if r.bad || site == nil ||
			(site.Op != ir.OpNew && site.Op != ir.OpNewArray) || site.Dst == nil {
			return nil
		}
		if cloneOf < -1 || cloneOf >= NodeID(i) || (cloneOf >= 0) != (cloneCtx != "") {
			return nil
		}
		a.Nodes = append(a.Nodes, a.nodes.Put(Node{
			ID:       NodeID(i),
			Logical:  i,
			Physical: site.AllocID,
			Type:     site.Dst.Type,
			Site:     site,
			Ctx:      c,
			Summary:  summary,
			CloneOf:  cloneOf,
			CloneCtx: cloneCtx,
		}))
	}
	a.fields = make([]map[string]NodeSet, nNodes)

	nPts := r.count(4)
	for i := 0; i < nPts; i++ {
		fi := r.index(len(funcs))
		if r.bad {
			return nil
		}
		v := values[fi][r.index(len(values[fi]))]
		c := Ctx(r.index(len(a.ctxSite)))
		s := r.setIn(nNodes)
		if r.bad {
			return nil
		}
		k := valCtx{v, c}
		if _, dup := a.pts[k]; dup {
			return nil
		}
		a.pts[k] = s
		all := a.ptsAll[v]
		all.AddAll(s)
		a.ptsAll[v] = all
	}

	for i := 0; i < nNodes; i++ {
		nKeys := r.count(2)
		for j := 0; j < nKeys; j++ {
			key := r.str()
			s := r.setIn(nNodes)
			if r.bad || key == "" {
				return nil
			}
			if _, dup := a.fields[i][key]; dup {
				return nil
			}
			if a.fields[i] == nil {
				a.fields[i] = make(map[string]NodeSet, nKeys)
			}
			a.fields[i][key] = s
		}
	}

	nGlobals := r.count(2)
	for i := 0; i < nGlobals; i++ {
		key := r.str()
		s := r.setIn(nNodes)
		if r.bad {
			return nil
		}
		fd := staticFieldByKey(prog, key)
		if fd == nil {
			return nil
		}
		if _, dup := a.globals[fd]; dup {
			return nil
		}
		a.globals[fd] = s
	}

	nAllocs := r.count(5)
	for i := 0; i < nAllocs; i++ {
		site := siteAt()
		c := Ctx(r.index(len(a.ctxSite)))
		id := NodeID(r.index(nNodes))
		if r.bad || site == nil ||
			(site.Op != ir.OpNew && site.Op != ir.OpNewArray) {
			return nil
		}
		k := allocKey{site, c}
		if _, dup := a.allocNode[k]; dup {
			return nil
		}
		a.allocNode[k] = id
	}

	nMemo := r.count(3)
	for i := 0; i < nMemo; i++ {
		ctx := r.str()
		phys := int(r.uint())
		id := NodeID(r.index(nNodes))
		if r.bad || ctx == "" || phys > 1<<30 {
			return nil
		}
		k := cloneKey{ctx: ctx, physical: phys}
		if _, dup := a.cloneMemo[k]; dup {
			return nil
		}
		a.cloneMemo[k] = id
	}

	nPairs := r.count(3)
	for i := 0; i < nPairs; i++ {
		ctx := r.str()
		orig := NodeID(r.index(nNodes))
		id := NodeID(r.index(nNodes))
		if r.bad || ctx == "" {
			return nil
		}
		k := clonePair{ctx: ctx, orig: orig}
		if _, dup := a.clonePairs[k]; dup {
			return nil
		}
		a.clonePairs[k] = id
	}

	if r.bad || r.pos != len(payload) {
		return nil
	}
	return a
}

// staticFieldByKey resolves "Owner.name" to the declaring class's
// static field, or nil.
func staticFieldByKey(prog *ir.Program, key string) *lang.FieldDecl {
	owner, name, ok := strings.Cut(key, ".")
	if !ok || prog.Lang == nil {
		return nil
	}
	cd, ok := prog.Lang.Classes[owner]
	if !ok {
		return nil
	}
	for _, fd := range cd.Fields {
		if fd.Name == name && fd.Static {
			return fd
		}
	}
	return nil
}
