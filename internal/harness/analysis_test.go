package harness

import (
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"cormi/internal/core"
	"cormi/internal/heap"
	"cormi/internal/heap/gen"
	"cormi/internal/model"
)

// The `make verify-analysis` gates: the 2k-function corpus must
// analyze inside the wall budget with zero silent precision loss, and
// the result must be bit-identical across worker counts and
// GOMAXPROCS settings.

// gateCorpus is the pinned scalability corpus: 100 independent
// regions x 20 helpers (+2 service methods each) = 2200 bodied
// functions.
var gateCorpus = gen.Config{Seed: 2026, Components: 100, FuncsPerComponent: 20}

// costCounters are the structure and precision counters of a cold run
// that depend on the corpus alone, never on the host or worker count:
// any drift means the analysis result itself changed.
type costCounters struct {
	functions, sccs, components, waves       int
	contexts, nodes, strongKills, iterations int
	budgetFallbacks                          int
}

func countersOf(c heap.CostStats) costCounters {
	return costCounters{
		functions: c.Functions, sccs: c.SCCs, components: c.Components, waves: c.Waves,
		contexts: c.Contexts, nodes: c.Nodes, strongKills: c.StrongKills, iterations: c.Iterations,
		budgetFallbacks: c.BudgetFallbacks,
	}
}

// gateCorpora are the inputs of the corpus gate: the 2200-function
// scalability corpus and a 360-function one (30 regions x 10 helpers,
// the shape the repo benchmark's compile workload compiles).
// budgetFallbacks is 0 on both: their call fan-in is designed under
// the context budget, so a fallback means the bounded-context rule
// regressed. fingerprint is Analysis.Fingerprint of the run, as a
// constant: the other gates compare two runs of one build with each
// other, which a numbering error made by both (a set mergeParts
// forgets to relocate) passes.
var gateCorpora = []struct {
	name        string
	cfg         gen.Config
	cold        costCounters
	fingerprint uint64
}{
	{"funcs=2200", gateCorpus,
		costCounters{functions: 2200, sccs: 2100, components: 100, waves: 18,
			contexts: 2628, nodes: 700, strongKills: 0, iterations: 3, budgetFallbacks: 0},
		0x090faccdbd36800a},
	{"funcs=360", gen.Config{Seed: 404, Components: 30, FuncsPerComponent: 10},
		costCounters{functions: 360, sccs: 330, components: 30, waves: 8,
			contexts: 329, nodes: 210, strongKills: 0, iterations: 3, budgetFallbacks: 0},
		0xc37f416cb4bc682e},
}

// analysisWallBudget caps the analysis driver's own wall time on the
// gate corpus. The corpus solves in ~8ms on a 2-vCPU host; the budget
// leaves more than two orders of magnitude for slow CI hardware while
// still catching an asymptotic regression (the pre-scheduler engine
// would iterate the whole program to fixpoint instead of per-region).
const analysisWallBudget = 5 * time.Second

func gateOpts(workers int) heap.Options {
	o := heap.DefaultOptions()
	o.Workers = workers
	return o
}

// TestAnalysisCorpusGate: the parallel run of each pinned corpus must
// finish inside the budget and reproduce its structure and precision
// counters and its fingerprint exactly.
func TestAnalysisCorpusGate(t *testing.T) {
	for _, g := range gateCorpora {
		t.Run(g.name, func(t *testing.T) {
			a, err := AnalyzeCorpus(g.cfg, gateOpts(0)) // Workers 0 = GOMAXPROCS
			if err != nil {
				t.Fatal(err)
			}
			c := a.Cost
			if got := countersOf(c); got != g.cold {
				t.Errorf("cold counters\n got %+v\nwant %+v (fallbacks in %v)", got, g.cold, c.FallbackFuncs)
			}
			if got := a.Fingerprint(); got != g.fingerprint {
				t.Errorf("fingerprint %#016x, want %#016x: node or context numbering, or some points-to fact, moved", got, g.fingerprint)
			}
			if wall := time.Duration(c.WallNS); wall > analysisWallBudget {
				t.Errorf("analysis wall time %v exceeds budget %v", wall, analysisWallBudget)
			}
		})
	}
}

// TestAnalysisParallelSpeedup: the parallel run of the gate corpus
// must produce the bit-identical analysis of the sequential one, and —
// only where there are cores to show it, >= 4 — be at least 2x faster
// (best of 3 each). Two cores measure no speedup (~8ms either way), so
// a wall-clock bound there only reports the host; fewer than four
// assert identity alone.
func TestAnalysisParallelSpeedup(t *testing.T) {
	prog, err := CompileCorpus(gateCorpus)
	if err != nil {
		t.Fatal(err)
	}
	best := func(workers int) (time.Duration, uint64) {
		b := time.Duration(1<<62 - 1)
		var fp uint64
		for i := 0; i < 3; i++ {
			a := heap.AnalyzeOpts(prog, gateOpts(workers))
			b = min(b, time.Duration(a.Cost.WallNS))
			fp = a.Fingerprint()
		}
		return b, fp
	}
	workers := max(runtime.NumCPU(), 4)
	seq, seqFP := best(1)
	par, parFP := best(workers)
	if seqFP != parFP {
		t.Errorf("workers=%d fingerprint %016x differs from sequential %016x", workers, parFP, seqFP)
	}
	if runtime.NumCPU() < 4 {
		t.Logf("%d CPUs: identity only (parallel %v, sequential %v)", runtime.NumCPU(), par, seq)
		return
	}
	if par*2 > seq {
		t.Errorf("parallel %v not 2x faster than sequential %v (%d CPUs)",
			par, seq, runtime.NumCPU())
	}
}

// TestAnalysisDeterminism: the merged analysis fingerprint, the
// verdict matrix bytes, and the explain JSON bytes must be identical
// at every GOMAXPROCS x workers combination. This is
// the hard requirement the whole scheduler design serves.
func TestAnalysisDeterminism(t *testing.T) {
	// Smaller corpus than the gate: this test runs the analysis many
	// times over.
	cfg := gen.Config{Seed: 31, Components: 12, FuncsPerComponent: 8}

	type variant struct {
		name    string
		maxproc int
		workers int
	}
	variants := []variant{
		{"gomax1/seq", 1, 1},
		{"gomax1/par", 1, 4},
		{"gomax4/seq", 4, 1},
		{"gomax4/par", 4, 4},
		{"gomaxN/seq", runtime.NumCPU(), 1},
		{"gomaxN/par", runtime.NumCPU(), 4},
	}
	var want uint64
	for i, v := range variants {
		prev := runtime.GOMAXPROCS(v.maxproc)
		a, err := AnalyzeCorpus(cfg, gateOpts(v.workers))
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		fp := a.Fingerprint()
		if i == 0 {
			want = fp
		} else if fp != want {
			t.Errorf("%s: fingerprint %016x differs from %s %016x",
				v.name, fp, variants[0].name, want)
		}
	}

	// The end-user artifacts over the real example corpus must also be
	// byte-stable across GOMAXPROCS.
	matrix := func(maxproc int) string {
		prev := runtime.GOMAXPROCS(maxproc)
		defer runtime.GOMAXPROCS(prev)
		m, err := BuildVerdictMatrix(corpusDir, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return m.Format()
	}
	if matrix(1) != matrix(4) {
		t.Error("verdict matrix bytes differ between GOMAXPROCS 1 and 4")
	}

	explain := func(maxproc, workers int) []byte {
		prev := runtime.GOMAXPROCS(maxproc)
		defer runtime.GOMAXPROCS(prev)
		src := gen.Generate(cfg).Source
		ho := gateOpts(workers)
		res, err := core.CompileOpts(src, model.NewRegistry(), core.Options{HeapOpts: &ho})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res.Explain("determinism"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if string(explain(1, 1)) != string(explain(4, 4)) {
		t.Error("explain JSON bytes differ across GOMAXPROCS/workers")
	}
}
