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

// The `make verify-analysis` gates (ISSUE 10): the 2k-function corpus
// must analyze inside the wall budget with zero silent precision loss,
// a one-function edit must re-analyze under 10% of the summaries, and
// the result must be bit-identical across worker counts, GOMAXPROCS
// settings, and cache states.

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

// gateCorpora are the inputs of the corpus and incremental gates: the
// 2200-function scalability corpus and a 360-function one (30 regions
// x 10 helpers, the shape the repo benchmark's compile workload
// compiles). Each names the one function edited for the warm run and
// how many functions that edit must re-analyze. budgetFallbacks is 0
// on both: their call fan-in is designed under the context budget, so
// a fallback means the bounded-context rule regressed. fingerprint is
// Analysis.Fingerprint of the cold run, as a constant: the other gates
// compare two runs of one build with each other, which a numbering
// error made by both (a set mergeParts forgets to relocate) passes.
var gateCorpora = []struct {
	name         string
	cfg          gen.Config
	cold         costCounters
	fingerprint  uint64
	edit         string
	warmAnalyzed int
}{
	{"funcs=2200", gateCorpus,
		costCounters{functions: 2200, sccs: 2100, components: 100, waves: 18,
			contexts: 2628, nodes: 700, strongKills: 0, iterations: 3, budgetFallbacks: 0},
		0x090faccdbd36800a, "C42App.f13", 22},
	{"funcs=360", gen.Config{Seed: 404, Components: 30, FuncsPerComponent: 10},
		costCounters{functions: 360, sccs: 330, components: 30, waves: 8,
			contexts: 329, nodes: 210, strongKills: 0, iterations: 3, budgetFallbacks: 0},
		0xc37f416cb4bc682e, "C7App.f5", 12},
}

// analysisWallBudget caps the analysis driver's own wall time on the
// gate corpus. The corpus solves in ~30ms on an unloaded dev machine;
// the budget leaves two orders of magnitude for slow CI hardware while
// still catching an asymptotic regression (the pre-scheduler engine
// would iterate the whole program to fixpoint instead of per-region).
const analysisWallBudget = 5 * time.Second

func gateOpts(workers int, dir string) heap.Options {
	o := heap.DefaultOptions()
	o.Workers = workers
	o.CacheDir = dir
	return o
}

// TestAnalysisCorpusGate: the parallel cold run of each pinned corpus
// must finish inside the budget and reproduce its structure and
// precision counters exactly.
func TestAnalysisCorpusGate(t *testing.T) {
	for _, g := range gateCorpora {
		t.Run(g.name, func(t *testing.T) {
			a, err := AnalyzeCorpus(g.cfg, gateOpts(0, "")) // Workers 0 = GOMAXPROCS
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
			if c.FuncsAnalyzed != c.Functions {
				t.Errorf("cold uncached run analyzed %d of %d functions", c.FuncsAnalyzed, c.Functions)
			}
		})
	}
}

// TestAnalysisIncrementalGate: after a cold cache populate, editing
// ONE function must re-analyze only its own region — strictly less
// than 10% of the corpus — and still produce a result bit-identical to
// an uncached cold run of the edited program.
func TestAnalysisIncrementalGate(t *testing.T) {
	for _, g := range gateCorpora {
		t.Run(g.name, func(t *testing.T) {
			dir := t.TempDir()
			cold, err := AnalyzeCorpus(g.cfg, gateOpts(0, dir))
			if err != nil {
				t.Fatal(err)
			}
			if cold.Cost.CacheMisses != g.cfg.Components {
				t.Fatalf("cold populate: %d misses, want %d", cold.Cost.CacheMisses, g.cfg.Components)
			}

			edited := g.cfg
			edited.Edits = map[string]int{g.edit: 1}
			warm, err := AnalyzeCorpus(edited, gateOpts(0, dir))
			if err != nil {
				t.Fatal(err)
			}
			if warm.Cost.FuncsAnalyzed != g.warmAnalyzed {
				t.Errorf("one-function edit re-analyzed %d functions, want %d",
					warm.Cost.FuncsAnalyzed, g.warmAnalyzed)
			}
			if frac := float64(warm.Cost.FuncsAnalyzed) / float64(warm.Cost.Functions); frac >= 0.10 {
				t.Errorf("one-function edit re-analyzed %d/%d functions (%.1f%%), want < 10%%",
					warm.Cost.FuncsAnalyzed, warm.Cost.Functions, 100*frac)
			}
			if warm.Cost.CacheHits != g.cfg.Components-1 {
				t.Errorf("warm run: %d hits, want %d (all but the edited region)",
					warm.Cost.CacheHits, g.cfg.Components-1)
			}

			fresh, err := AnalyzeCorpus(edited, gateOpts(0, ""))
			if err != nil {
				t.Fatal(err)
			}
			if warm.Fingerprint() != fresh.Fingerprint() {
				t.Error("incremental warm result differs from uncached cold run of the edited program")
			}
		})
	}
}

// TestAnalysisParallelSpeedup: the parallel cold run of the gate corpus
// must produce the bit-identical analysis of the sequential one, and —
// only where there are cores to show it, >= 4 — be at least 2x faster
// (best of 3 each). Two cores measure 1.3-1.9x, so a wall-clock bound
// there only reports the host; fewer than four assert identity alone.
func TestAnalysisParallelSpeedup(t *testing.T) {
	prog, err := CompileCorpus(gateCorpus)
	if err != nil {
		t.Fatal(err)
	}
	best := func(workers int) (time.Duration, uint64) {
		b := time.Duration(1<<62 - 1)
		var fp uint64
		for i := 0; i < 3; i++ {
			a := heap.AnalyzeOpts(prog, gateOpts(workers, ""))
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
// at every GOMAXPROCS x workers x cache-state combination. This is
// the hard requirement the whole scheduler design serves.
func TestAnalysisDeterminism(t *testing.T) {
	// Smaller corpus than the gate: this test runs the analysis many
	// times over.
	cfg := gen.Config{Seed: 31, Components: 12, FuncsPerComponent: 8}
	dir := t.TempDir()

	type variant struct {
		name    string
		maxproc int
		workers int
		cache   string
	}
	variants := []variant{
		{"gomax1/seq/cold", 1, 1, ""},
		{"gomax1/par/cold", 1, 4, ""},
		{"gomax4/par/populate", 4, 4, dir},
		{"gomax4/par/warm", 4, 4, dir},
		{"gomax4/seq/warm", 4, 1, dir},
		{"gomaxN/par/cold", runtime.NumCPU(), 4, ""},
	}
	var want uint64
	for i, v := range variants {
		prev := runtime.GOMAXPROCS(v.maxproc)
		a, err := AnalyzeCorpus(cfg, gateOpts(v.workers, v.cache))
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
		ho := gateOpts(workers, "")
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
