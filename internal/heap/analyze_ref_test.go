package heap

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cormi/internal/heap/gen"
	"cormi/internal/heap/sched"
	"cormi/internal/ir"
)

// planRegions is what AnalyzeOpts solves, derived here independently:
// each region's solve order and the plan's recursion flags.
func planRegions(prog *ir.Program) ([][]*ir.Func, map[*ir.Func]bool) {
	plan := sched.BuildPlan(prog)
	var regions [][]*ir.Func
	for _, c := range plan.Components {
		var funcs []*ir.Func
		for _, fi := range c.Order {
			funcs = append(funcs, plan.Funcs[fi])
		}
		regions = append(regions, funcs)
	}
	recursive := map[*ir.Func]bool{}
	for fi, r := range plan.Recursive {
		recursive[plan.Funcs[fi]] = r
	}
	return regions, recursive
}

// singleFixpoint is the oracle the region loop is held to: the plain
// fixpoint over the whole program as one region — every function
// walked on every pass until a pass changes nothing anywhere — in
// AnalyzeOpts' function order, with its strong-update rerun.
func singleFixpoint(prog *ir.Program, opts Options) *Analysis {
	regions, recursive := planRegions(prog)
	var all []*ir.Func
	for _, funcs := range regions {
		all = append(all, funcs...)
	}
	one := [][]*ir.Func{all}
	a := runAnalysis(prog, opts, one, recursive, nil)
	if opts.StrongUpdates {
		if kills := a.computeKills(); len(kills) > 0 {
			a = runAnalysis(prog, opts, one, recursive, kills)
			a.StrongKills = len(kills)
		}
	}
	return a
}

// skewedSource is the 360-function corpus plus one region whose
// reference parameter is threaded down a chain of depth calls: that
// region needs depth+2 passes, the other thirty need three.
func skewedSource(depth int) string {
	var b strings.Builder
	b.WriteString(gen.Generate(gen.Config{Seed: 404, Components: 30, FuncsPerComponent: 10}).Source)
	b.WriteString("class SkNode { SkNode next; }\nclass Skew {\n")
	for i := 1; i < depth; i++ {
		fmt.Fprintf(&b, "\tstatic void c%d(SkNode n) { Skew.c%d(n); }\n", i, i+1)
	}
	fmt.Fprintf(&b, "\tstatic void c%d(SkNode n) { n.next = n; }\n", depth)
	b.WriteString("\tstatic void main() { Skew.c1(new SkNode()); }\n}\n")
	return b.String()
}

// lateStaticSrc couples two classes through a static field alone: A
// stores into A.keep only at the bottom of a six-call chain (pass 7),
// and B, with no call edge to A, reads it. Only the shared-static
// union in sched.buildComponents puts them in one region; split, B is
// solved first, converges on an empty A.keep, and never sees the store.
const lateStaticSrc = `
class LNode { LNode next; }
class B {
	static LNode take() { return A.keep; }
}
class A {
	static LNode keep;
	static void a1(LNode n) { A.a2(n); }
	static void a2(LNode n) { A.a3(n); }
	static void a3(LNode n) { A.a4(n); }
	static void a4(LNode n) { A.a5(n); }
	static void a5(LNode n) { A.a6(n); }
	static void a6(LNode n) { A.keep = n; }
	static void main() { A.a1(new LNode()); }
}
`

// lateNodeSrc has a region that discovers a node on its second pass
// (the return clone of what Echo.echo loads from its cloned argument)
// beside a region that allocates on its first: solved region by
// region, each region's nodes stay contiguous, as they were when each
// region was solved on its own and the parts were concatenated.
const lateNodeSrc = `
class N { N next; }
remote class Echo { N echo(N n) { N m = n.next; return m; } }
class A { static N a() { Echo e = new Echo(); N x = new N(); x.next = new N(); N y = e.echo(x); return y; } }
class B { static int b() { N z = new N(); return 0; } }
`

// TestSingleFixpointAgrees: AnalyzeOpts, which walks a region only
// until it converges, must compute what the plain single fixpoint
// computes — the same Analysis.Fingerprint, under both precision
// settings — on generated corpora from one region of 200 helpers to
// 60 regions of four, the skewed corpus, every example program, and
// the late-static program. Both number nodes in discovery order, the
// oracle over the whole program and AnalyzeOpts region by region, so
// they coincide where no region discovers a node after another region
// started; that is so on every input here (lateNodeSrc is the counter-example, pinned
// in TestConvergedRegionsStopWalking against the per-region solve).
func TestSingleFixpointAgrees(t *testing.T) {
	type input struct{ name, src string }
	var inputs []input
	for _, cfg := range []gen.Config{
		{Seed: 404, Components: 30, FuncsPerComponent: 10},
		{Seed: 2026, Components: 100, FuncsPerComponent: 20},
		{Seed: 31, Components: 12, FuncsPerComponent: 8},
		{Seed: 7, Components: 1, FuncsPerComponent: 200},
		{Seed: 9, Components: 60, FuncsPerComponent: 4},
	} {
		inputs = append(inputs, input{fmt.Sprintf("gen %d %dx%d", cfg.Seed, cfg.Components, cfg.FuncsPerComponent), gen.Generate(cfg).Source})
	}
	inputs = append(inputs, input{"skewed", skewedSource(40)}, input{"late static", lateStaticSrc})
	files, err := filepath.Glob("../../examples/minijp/*.jp")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs (%v)", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{filepath.Base(f), string(src)})
	}
	for _, in := range inputs {
		for _, opts := range []Options{DefaultOptions(), {}} {
			a, prog := analyzeOpts(t, in.src, opts)
			want := singleFixpoint(prog, opts)
			if got, w := a.Fingerprint(), want.Fingerprint(); got != w {
				t.Errorf("%s (context-sensitive %v): fingerprint %#016x, single fixpoint %#016x (iterations %d vs %d, nodes %d vs %d)",
					in.name, opts.ContextSensitive, got, w, a.Iterations, want.Iterations, len(a.Nodes), len(want.Nodes))
			}
		}
	}
}

// TestConvergedRegionsStopWalking pins two programs — the skewed
// corpus (one region of depth 40 among thirty shallow ones) and
// lateNodeSrc — to the fingerprints computed for them when each region
// was solved on its own and the parts were merged, and counts the function bodies the
// passes walk: each region's size once per pass it needed, which for
// the skewed corpus is far below the 42 × 401 the single fixpoint
// walks. Pass counts per region come from solving each region alone.
func TestConvergedRegionsStopWalking(t *testing.T) {
	for _, tc := range []struct {
		name                           string
		src                            string
		functions, regions, iterations int
		fingerprint                    uint64
	}{
		{"skewed", skewedSource(40), 401, 31, 42, 0x1d6042439048afb5},
		{"late node", lateNodeSrc, 3, 2, 3, 0x9588e6ad1abe3565},
	} {
		start := time.Now()
		a, prog := analyzeOpts(t, tc.src, DefaultOptions())
		wall := time.Since(start)
		c := a.Cost
		if c.Functions != tc.functions || c.Components != tc.regions || c.Iterations != tc.iterations || c.StrongKills != 0 {
			t.Errorf("%s: functions %d regions %d iterations %d strong kills %d, want %d %d %d 0",
				tc.name, c.Functions, c.Components, c.Iterations, c.StrongKills, tc.functions, tc.regions, tc.iterations)
		}
		if got := a.Fingerprint(); got != tc.fingerprint {
			t.Errorf("%s: fingerprint %#016x, want %#016x", tc.name, got, tc.fingerprint)
		}
		regions, recursive := planRegions(prog)
		want := 0
		for _, funcs := range regions {
			alone := runAnalysis(prog, DefaultOptions(), [][]*ir.Func{funcs}, recursive, nil)
			want += alone.Iterations * len(funcs)
		}
		if a.walked != want {
			t.Errorf("%s: walked %d function bodies, want %d (sum over regions of passes x size)", tc.name, a.walked, want)
		}
		t.Logf("%s: walked %d bodies (single fixpoint: %d x %d = %d) in %v",
			tc.name, a.walked, c.Iterations, c.Functions, c.Iterations*c.Functions, wall)
	}
}
