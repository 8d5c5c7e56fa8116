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

// TestAnalysisCorpusGate: the parallel cold run of the 2k-function
// corpus must finish inside the budget, discover the expected
// structure, and never fall back on the context budget (the corpus
// fan-in is designed under it — a fallback here means the bounded-
// context rule regressed).
func TestAnalysisCorpusGate(t *testing.T) {
	a, err := AnalyzeCorpus(gateCorpus, gateOpts(0, "")) // Workers 0 = GOMAXPROCS
	if err != nil {
		t.Fatal(err)
	}
	c := a.Cost
	if c.Functions != 2200 {
		t.Errorf("corpus has %d bodied functions, want 2200", c.Functions)
	}
	if c.Components != gateCorpus.Components {
		t.Errorf("scheduler found %d regions, want %d", c.Components, gateCorpus.Components)
	}
	if c.BudgetFallbacks != 0 {
		t.Errorf("%d context-budget fallbacks on the pinned corpus, want 0 (%v)",
			c.BudgetFallbacks, c.FallbackFuncs)
	}
	if wall := time.Duration(c.WallNS); wall > analysisWallBudget {
		t.Errorf("analysis wall time %v exceeds budget %v", wall, analysisWallBudget)
	}
	if c.FuncsAnalyzed != c.Functions {
		t.Errorf("cold uncached run analyzed %d of %d functions", c.FuncsAnalyzed, c.Functions)
	}
}

// TestAnalysisIncrementalGate: after a cold cache populate, editing
// ONE function must re-analyze strictly less than 10% of the corpus
// and still produce a result bit-identical to an uncached cold run of
// the edited program.
func TestAnalysisIncrementalGate(t *testing.T) {
	dir := t.TempDir()
	cold, err := AnalyzeCorpus(gateCorpus, gateOpts(0, dir))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cost.CacheMisses != gateCorpus.Components {
		t.Fatalf("cold populate: %d misses, want %d", cold.Cost.CacheMisses, gateCorpus.Components)
	}

	edited := gateCorpus
	edited.Edits = map[string]int{"C42App.f13": 1}
	warm, err := AnalyzeCorpus(edited, gateOpts(0, dir))
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(warm.Cost.FuncsAnalyzed) / float64(warm.Cost.Functions)
	if frac >= 0.10 {
		t.Errorf("one-function edit re-analyzed %d/%d functions (%.1f%%), want < 10%%",
			warm.Cost.FuncsAnalyzed, warm.Cost.Functions, 100*frac)
	}
	if warm.Cost.CacheHits != gateCorpus.Components-1 {
		t.Errorf("warm run: %d hits, want %d (all but the edited region)",
			warm.Cost.CacheHits, gateCorpus.Components-1)
	}

	fresh, err := AnalyzeCorpus(edited, gateOpts(0, ""))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Fingerprint() != fresh.Fingerprint() {
		t.Error("incremental warm result differs from uncached cold run of the edited program")
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
