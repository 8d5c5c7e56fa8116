package core_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"cormi/internal/apps/lu"
	"cormi/internal/apps/micro"
	"cormi/internal/apps/superopt"
	"cormi/internal/apps/webserver"
	"cormi/internal/core"
	"cormi/internal/heap"
	"cormi/internal/heap/gen"
	"cormi/internal/ir"
	"cormi/internal/lang"
	"cormi/internal/model"
	"cormi/internal/testkit"
)

// This file keeps the per-graph escape scan that escape.go replaced
// with one index per compile, as a reference to test against: for every
// graph it walks every heap node's field map and every store of every
// function in every context. It is a differential oracle for the index
// — the same §3.3 rules computed the slow way — not the
// concrete-execution oracle ROADMAP item 4 asks for: both sides trust
// the same heap analysis.

// refFieldKeys lists a node's field keys in map order, as the replaced
// scan did, or sorted.
func refFieldKeys(a *heap.Analysis, id heap.NodeID, sorted bool) []string {
	var keys []string
	for key := range a.FieldEdges(id) {
		keys = append(keys, key)
	}
	if sorted {
		sort.Strings(keys)
	}
	return keys
}

type refRoot struct {
	rule  string
	roots heap.NodeSet
}

func refNodeWitness(r *core.Result, rule string, id heap.NodeID, detail string) *core.EscapeWitness {
	return &core.EscapeWitness{Rule: rule, Node: id, Alloc: r.Heap.Nodes[id].Logical, Detail: detail}
}

func refGraphEscapeWitness(r *core.Result, graph heap.NodeSet, extra []refRoot, sortedKeys bool) *core.EscapeWitness {
	if len(graph) == 0 {
		return nil
	}
	globalReach := r.Heap.Reach(r.Heap.GlobalSeeds())
	for _, id := range graph.Sorted() {
		if globalReach.Has(id) {
			return refNodeWitness(r, core.RuleGlobalReachable, id, "reachable from a static variable")
		}
	}
	for _, lr := range extra {
		reach := r.Heap.Reach(lr.roots)
		for _, id := range graph.Sorted() {
			if reach.Has(id) {
				return refNodeWitness(r, lr.rule, id, "")
			}
		}
	}
	for i := range r.Heap.Nodes {
		id := heap.NodeID(i)
		if graph.Has(id) {
			continue
		}
		for _, key := range refFieldKeys(r.Heap, id, sortedKeys) {
			for _, m := range r.Heap.Field(id, key).Sorted() {
				if graph.Has(m) {
					return refNodeWitness(r, core.RuleStoredOutside, m,
						fmt.Sprintf("stored into %s of allocation %d", key, r.Heap.Nodes[id].Logical))
				}
			}
		}
	}
	for _, f := range r.IR.Funcs {
		var w *core.EscapeWitness
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
			for _, c := range r.Heap.Contexts(f) {
				if len(r.Heap.PointsToIn(target, c)) > 0 {
					continue
				}
				for _, id := range r.Heap.PointsToIn(val, c).Sorted() {
					if graph.Has(id) {
						w = refNodeWitness(r, core.RuleUnknownStore, id,
							fmt.Sprintf("stored through an unanalyzable reference in %s", f.Name))
						return false
					}
				}
			}
			return true
		})
		if w != nil {
			return w
		}
	}
	return nil
}

func refReturned(r *core.Result, f *ir.Func) heap.NodeSet {
	rets := heap.NodeSet{}
	for _, rv := range ir.ReturnValues(f) {
		rets.AddAll(r.Heap.PointsTo(rv))
	}
	return rets
}

func refArgReuseDenial(r *core.Result, site *ir.Instr, argNodes heap.NodeSet, sortedKeys bool) *core.EscapeWitness {
	targets := r.IR.DispatchTargets(site.Callee)
	for _, md := range targets {
		if _, ok := r.IR.FuncOf[md]; !ok {
			return &core.EscapeWitness{Rule: core.RuleNoCalleeBody, Node: -1, Alloc: -1,
				Detail: md.QualifiedName() + " has no analyzable body"}
		}
	}
	clones := r.Heap.CloneSetOf(heap.ArgCtx(site.Callee), argNodes)
	if len(clones) == 0 && len(argNodes) > 0 {
		return &core.EscapeWitness{Rule: core.RuleUnanalyzedClones, Node: -1, Alloc: -1,
			Detail: "no callee-side clone of the argument graph was analyzed"}
	}
	var extra []refRoot
	for _, md := range targets {
		callee := r.IR.FuncOf[md]
		if !md.Static && len(callee.Params) > 0 {
			extra = append(extra, refRoot{core.RuleReceiverReachable, r.Heap.PointsTo(callee.Params[0])})
		}
		extra = append(extra, refRoot{core.RuleReturned, refReturned(r, callee)})
	}
	return refGraphEscapeWitness(r, r.Heap.Reach(clones), extra, sortedKeys)
}

func refRetReuseDenial(r *core.Result, site *ir.Instr, retNodes heap.NodeSet, sortedKeys bool) *core.EscapeWitness {
	if site.Dst != nil {
		for _, u := range site.Dst.Uses {
			if u.Op == ir.OpPhi {
				return &core.EscapeWitness{Rule: core.RulePhiLive, Node: -1, Alloc: -1,
					Detail: "result flows into a phi, so it may survive a loop iteration"}
			}
		}
	}
	clones := r.Heap.CloneSetOf(heap.RetCtx(site.SiteID), retNodes)
	if len(clones) == 0 && len(retNodes) > 0 {
		return &core.EscapeWitness{Rule: core.RuleUnanalyzedClones, Node: -1, Alloc: -1,
			Detail: "no caller-side clone of the returned graph was analyzed"}
	}
	extra := []refRoot{{core.RuleReturned, refReturned(r, site.Block.Func)}}
	return refGraphEscapeWitness(r, r.Heap.Reach(clones), extra, sortedKeys)
}

func sameWitness(a, b *core.EscapeWitness) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

// diffTally counts what one differential run compared.
type diffTally struct {
	values, denied, ties int
	rules                map[string]int
}

// diffWitnesses compares every reuse verdict of res against the
// reference. A difference is accepted only as a map-order tie: the
// rule is stored-outside and the reference agrees once it takes the
// holder's field keys in sorted order.
func diffWitnesses(t *testing.T, label string, res *core.Result, tally *diffTally) {
	t.Helper()
	check := func(what string, got *core.EscapeWitness, ref func(sortedKeys bool) *core.EscapeWitness) {
		tally.values++
		if got != nil {
			tally.denied++
			tally.rules[got.Rule]++
		}
		want := ref(false)
		if sameWitness(got, want) {
			return
		}
		if got != nil && got.Rule == core.RuleStoredOutside && sameWitness(got, ref(true)) {
			tally.ties++
			return
		}
		t.Errorf("%s %s: index says %v, per-graph scan says %v", label, what, got, want)
	}
	for _, si := range res.Sites {
		if si.Dead {
			continue
		}
		in := si.Site
		args, params := in.Args, in.Callee.Params
		if !in.Callee.Static {
			args = args[1:]
		}
		for i, arg := range args {
			declType := arg.Type
			if i < len(params) {
				declType = params[i].Type
			}
			if !lang.IsRef(declType) {
				continue
			}
			check(fmt.Sprintf("%s arg %d", si.Name, i), si.ArgReuseDenied[i], func(sorted bool) *core.EscapeWitness {
				return refArgReuseDenial(res, in, si.ArgNodes[i], sorted)
			})
		}
		if si.NumRet == 1 && lang.IsRef(in.Callee.Ret) {
			check(si.Name+" return", si.RetReuseDenied, func(sorted bool) *core.EscapeWitness {
				return refRetReuseDenial(res, in, si.RetNodes, sorted)
			})
		}
	}
}

// twoFieldHolderSrc has one holder outside the argument graph (the Box
// allocated in the callee) with two fields pointing into it: the
// stored-outside witness must name the same field on every compile.
const twoFieldHolderSrc = `
class Leaf { int v; }
class Box { Leaf b; Leaf a; }
remote class Sink {
	int take(Leaf p) {
		Box h = new Box();
		h.b = p;
		h.a = p;
		return h.a.v;
	}
}
class Main {
	static int main() {
		Sink s = new Sink();
		return s.take(new Leaf());
	}
}`

// ruleZooSrc reaches the rules the bundled programs do not: no Keeper
// is ever allocated by analyzed code, so keep's stores through `this`
// are unanalyzable (and the first of them, in scan order, stores the
// higher-numbered node), as is keepEither's one store of either node;
// pick returns part of its argument; relay returns the graph its
// remote call returned.
const ruleZooSrc = `
class Data { Data next; int v; }
class Pair { Data l; Data r; }
remote class Keeper {
	Data slot;
	Data other;
	void keep(Data x) {
		this.other = x.next;
		this.slot = x;
	}
	void keepEither(Data x) {
		Data y = x.next;
		if (x.v > 0) { y = x; }
		this.slot = y;
	}
	Data make() {
		Data d = new Data();
		d.next = new Data();
		return d;
	}
}
remote class Driver {
	Data relay(Keeper k) { return k.make(); }
	Data pick(Pair p) { return p.r; }
	void run(Keeper k) {
		Data d = new Data();
		d.next = new Data();
		k.keep(d);
		k.keepEither(d);
	}
	static int main() {
		Driver dr = new Driver();
		Pair p = new Pair();
		p.l = new Data();
		p.r = new Data();
		Data got = dr.pick(p);
		return got.v;
	}
}`

// TestReuseVerdictDifferential is the first executable check of the
// reuse verdict beyond goldens: the indexed escape check must return
// the witness the replaced per-graph scan returns — rule, node,
// allocation and detail — for every reference argument and return of
// every live site, under the default and the context-insensitive
// analysis.
func TestReuseVerdictDifferential(t *testing.T) {
	type program struct{ name, src string }
	progs := []program{
		{"lu", lu.Src},
		{"micro.LinkedList", micro.LinkedListSrc},
		{"micro.ArrayBench", micro.ArrayBenchSrc},
		{"superopt", superopt.Src},
		{"webserver", webserver.Src},
		{"two-field-holder", twoFieldHolderSrc},
		{"rule-zoo", ruleZooSrc},
	}
	// Random straight-line programs that link, alias, globalize and
	// ship Cell graphs: many holders, keys and nodes per graph.
	for seed := int64(9000); seed < 9040; seed++ {
		progs = append(progs, program{fmt.Sprintf("fuzz seed %d", seed), testkit.GenMiniJP(rand.New(rand.NewSource(seed)))})
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "minijp", "*.jp"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no MiniJP corpus: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, program{filepath.Base(f), string(src)})
	}
	corpus := func(name string, cfg gen.Config) {
		cfg.Components, cfg.FuncsPerComponent = 30, 10
		progs = append(progs, program{name, gen.Generate(cfg).Source})
	}
	for _, seed := range []int64{1, 99, 401, 404, 2026} {
		corpus(fmt.Sprintf("gen seed %d", seed), gen.Config{Seed: seed})
	}
	base := gen.Generate(gen.Config{Seed: 7, Components: 30, FuncsPerComponent: 10})
	mid := base.Funcs[len(base.Funcs)/2]
	corpus("gen edit", gen.Config{Seed: 7, Edits: map[string]int{mid: 3}})
	corpus("gen extra call", gen.Config{Seed: 7, ExtraCalls: map[string]bool{mid: true}})

	insensitive := heap.Options{}
	modes := []struct {
		name string
		opts core.Options
	}{
		{"default", core.Options{}},
		{"insensitive", core.Options{HeapOpts: &insensitive}},
	}
	tally := &diffTally{rules: map[string]int{}}
	for _, p := range progs {
		for _, m := range modes {
			res, err := core.CompileOpts(p.src, model.NewRegistry(), m.opts)
			if err != nil {
				t.Fatalf("%s (%s): %v", p.name, m.name, err)
			}
			diffWitnesses(t, p.name+" ("+m.name+")", res, tally)
		}
	}
	t.Logf("%d programs x %d modes: %d reference values compared, %d denied %v, %d map-order ties",
		len(progs), len(modes), tally.values, tally.denied, tally.rules, tally.ties)
	// The comparison means little unless every graph rule was exercised.
	for _, rule := range []string{core.RuleGlobalReachable, core.RuleReceiverReachable,
		core.RuleReturned, core.RuleStoredOutside, core.RuleUnknownStore} {
		if tally.rules[rule] == 0 {
			t.Errorf("no program in the differential set is denied by %s", rule)
		}
	}
}

// TestStoredOutsideWitnessDeterministic pins the witness of a holder
// with two fields into the graph: the per-graph scan took the holder's
// field keys in map order, so explain output named either field.
func TestStoredOutsideWitnessDeterministic(t *testing.T) {
	want := core.EscapeWitness{}
	for i := 0; i < 100; i++ {
		res, err := core.Compile(twoFieldHolderSrc)
		if err != nil {
			t.Fatal(err)
		}
		si := res.SiteByName("Main.main.1")
		if si == nil || si.ArgReuseDenied[0] == nil {
			t.Fatalf("compile %d: expected a denied argument at Main.main.1", i)
		}
		got := *si.ArgReuseDenied[0]
		if i == 0 {
			want = got
			if got.Rule != core.RuleStoredOutside || !strings.HasPrefix(got.Detail, "stored into Box.a ") {
				t.Fatalf("witness %v, want stored-outside via Box.a (the lowest field key)", &got)
			}
		}
		if got != want {
			t.Fatalf("compile %d: witness %v, first compile said %v", i, &got, &want)
		}
	}
}
